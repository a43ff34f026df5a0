(** Thread identifiers.

    Both scheduler engines assign small consecutive integers to the threads
    they manage; identifier [0] always denotes the main thread of a run. *)

type t = int

val equal : t -> t -> bool
val compare : t -> t -> int
val pp : Format.formatter -> t -> unit

(** [to_string t] renders as ["T<n>"], the notation used in the paper's
    figures. *)
val to_string : t -> string

(** Tables keyed by thread: an identifier is its own hash, so a probe runs
    no generic hashing or comparison. *)
module Tbl : Hashtbl.S with type key = t
