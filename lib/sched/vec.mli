(** Minimal growable array (the standard library gains [Dynarray] only in
    OCaml 5.2; this container backs run queues, logs and the checker's
    state window).  Removing an element ([pop], [swap_remove], [clear],
    [drop_prefix]) vacates its slot: the vector never keeps a removed
    element reachable, and spare capacity holds no element either. *)

type 'a t

val create : unit -> 'a t
val length : 'a t -> int
val is_empty : 'a t -> bool
val push : 'a t -> 'a -> unit

(** [get v i] @raise Invalid_argument when [i] is out of bounds. *)
val get : 'a t -> int -> 'a

val set : 'a t -> int -> 'a -> unit

(** [swap_remove v i] removes index [i] in O(1) by moving the last element
    into its place, and returns the removed element. *)
val swap_remove : 'a t -> int -> 'a

(** [pop v] removes and returns the last element.
    @raise Invalid_argument on an empty vector. *)
val pop : 'a t -> 'a

val iter : ('a -> unit) -> 'a t -> unit
val fold_left : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc
val to_list : 'a t -> 'a list
val of_list : 'a list -> 'a t
val clear : 'a t -> unit

(** [sub v ~pos ~len] copies a slice into a fresh list. *)
val sub_list : 'a t -> pos:int -> len:int -> 'a list

(** [drop_prefix v n] removes the first [n] elements in O([n]) without
    moving the rest, so a vector used as a sliding window (push at the end,
    drop from the front) costs O(1) amortized per element.
    @raise Invalid_argument when [n] is out of bounds. *)
val drop_prefix : 'a t -> int -> unit
