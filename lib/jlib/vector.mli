(** Model of [java.util.Vector] with the published concurrency bug in
    [lastIndexOf] (paper §7.4.1, Table 1 row "Taking length non-atomically
    in lastIndexOf()").

    All methods synchronize on the vector's monitor.  The buggy variant's
    [last_index_of] reads the element count in one synchronized section and
    scans the backing array in another: if the vector shrinks in between,
    the scan walks stale slots beyond the current size and can answer with
    an index that never existed.  The bug lives in an observer and corrupts
    no state, which is why the paper finds view refinement no better than
    I/O refinement at catching it (§7.5). *)

type bug = Non_atomic_last_index_of

type t

val create : ?bugs:bug list -> capacity:int -> Vyrd.Instrument.ctx -> t

type outcome = Success | Failure  (** [Failure] = capacity exhausted *)

val add : t -> int -> outcome
val remove_last : t -> bool

(** [insert_at t i x] shifts the suffix right; [Failure] when [i] is out of
    bounds or the vector is full. *)
val insert_at : t -> int -> int -> outcome

(** [remove_at t i] shifts the suffix left; [false] when out of bounds. *)
val remove_at : t -> int -> bool

(** [set t i x] overwrites index [i]; [false] when out of bounds. *)
val set : t -> int -> int -> bool

(** [clear t] removes every element. *)
val clear : t -> unit

val get : t -> int -> int option
val size : t -> int
val is_empty : t -> bool
val contains : t -> int -> bool

(** Lowest index holding the element, or [-1]. *)
val index_of : t -> int -> int

(** Raised by the buggy [last_index_of] when the vector shrinks between its
    two synchronized sections (the JDK's [IndexOutOfBoundsException]). *)
exception Index_out_of_bounds

(** Highest index holding the element, or [-1].
    @raise Index_out_of_bounds in the buggy variant's race window. *)
val last_index_of : t -> int -> int

val viewdef : capacity:int -> Vyrd.View.t

(** The sequence specification: state is the array of elements in order. *)
val spec : Vyrd.Spec.t

val unsafe_contents : t -> int list
