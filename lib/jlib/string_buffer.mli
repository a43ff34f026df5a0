(** Model of [java.util.StringBuffer] with the published [append] race
    (paper §7.4.1, Table 1 row "Copying from an unprotected StringBuffer").

    The data structure instance is a fixed pool of buffers so that the
    two-object operation [append_sb dst src] is expressible in one
    specification.  Every method synchronizes on its buffer's monitor; the
    buggy [append_sb] reads the source's length under the source monitor,
    releases it, and later copies that many characters in a second critical
    section — if the source shrank in between, stale characters beyond its
    current length are appended, corrupting [dst].  Unlike the [Vector] bug
    this one corrupts state, so view refinement catches it at the append's
    commit, long before a [to_string] exposes it. *)

type bug = Unprotected_append_source

type pool

(** [create ~buffers ~buf_capacity ctx] makes a pool of empty buffers with
    ids [0 .. buffers-1]. *)
val create :
  ?bugs:bug list -> buffers:int -> buf_capacity:int -> Vyrd.Instrument.ctx -> pool

type outcome = Success | Failure  (** [Failure] = capacity exhausted *)

val append_str : pool -> int -> string -> outcome
val append_sb : pool -> dst:int -> src:int -> outcome

(** [truncate p b n] shortens buffer [b] to length [n]; [false] if [n]
    exceeds the current length. *)
val truncate : pool -> int -> int -> bool

(** [set_char p b i c] overwrites position [i]; [false] out of bounds. *)
val set_char : pool -> int -> int -> char -> bool

(** [delete_range p b ~pos ~len] removes [len] characters starting at
    [pos] (the JDK's [delete]); [false] when the range is invalid. *)
val delete_range : pool -> int -> pos:int -> len:int -> bool

(** [reverse p b] reverses the contents in place. *)
val reverse : pool -> int -> unit

val to_string : pool -> int -> string
val length : pool -> int -> int

(** [char_at p b i] returns [None] out of bounds (the JDK throws). *)
val char_at : pool -> int -> int -> char option

(** [viewdef ~buffers ~buf_capacity] is the [viewI]: each buffer's
    contents, as a canonical (buffer, contents) list.  It is a
    [View.Keyed] view with one key per buffer, so a commit recomputes only
    the buffers whose variables it changed. *)
val viewdef : buffers:int -> buf_capacity:int -> Vyrd.View.t
val spec : buffers:int -> Vyrd.Spec.t
val unsafe_contents : pool -> int -> string
