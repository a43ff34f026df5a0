(** Vector clocks with the FastTrack epoch optimization (Flanagan & Freund,
    PLDI 2009), the timestamp machinery of {!Racedetect}.

    A clock maps thread identifiers to logical times; [leq] is the
    happens-before order on timestamps.  An {!epoch} is FastTrack's scalar
    compression of a full clock: most variables are only ever accessed in a
    totally ordered fashion, so their last access is adequately described by
    a single [clock@tid] pair, and the O(threads) comparison collapses to one
    integer load ({!epoch_leq}). *)

type t

val create : unit -> t
(** The zero clock. *)

val copy : t -> t
val get : t -> Vyrd_sched.Tid.t -> int

(** [tick t tid] increments [tid]'s component in place. *)
val tick : t -> Vyrd_sched.Tid.t -> unit

(** [join t u] sets [t] to the pointwise maximum of [t] and [u]. *)
val join : t -> t -> unit

(** Pointwise [<=]: [leq t u] iff the event stamped [t] happens before (or
    equals) the one stamped [u]. *)
val leq : t -> t -> bool

val pp : Format.formatter -> t -> unit

(** {1 Epochs} *)

type epoch = { etid : Vyrd_sched.Tid.t; eclock : int }

(** [epoch t tid] is [tid]'s current epoch [get t tid @ tid]. *)
val epoch : t -> Vyrd_sched.Tid.t -> epoch

(** [epoch_leq e t] iff the access stamped [e] happens before the point
    stamped [t] — the O(1) race check. *)
val epoch_leq : epoch -> t -> bool
