(** Shadow replay of the implementation state (paper §5.1–5.2).

    The verification thread reconstructs the shared variables in
    [supp(viewI)] from logged [Write] events.  Commit blocks make the
    reconstruction match the paper's τ → τ′ transformation: writes performed
    inside an open commit block are buffered and become visible only at that
    thread's commit action (or, if the block commits nothing, at its end),
    so [viewI] computed at {e another} thread's commit never sees a dirty
    half-updated state. *)

type t

exception Ill_formed of string

val create : unit -> t

(** [write t tid var v] records a shared write: applied immediately, or
    buffered if [tid] has an open, not-yet-committed commit block. *)
val write : t -> Vyrd_sched.Tid.t -> string -> Repr.t -> unit

(** @raise Ill_formed on nested commit blocks. *)
val block_begin : t -> Vyrd_sched.Tid.t -> unit

(** Ends [tid]'s commit block, publishing any writes still buffered.
    @raise Ill_formed if no block is open. *)
val block_end : t -> Vyrd_sched.Tid.t -> unit

(** [commit t tid] publishes the buffered writes of [tid]'s open commit
    block, if any; writes after the commit (still inside the block) apply
    immediately.  A no-op for threads without an open block. *)
val commit : t -> Vyrd_sched.Tid.t -> unit

(** Committed (visible) value of a variable. *)
val lookup : t -> string -> Repr.t option

(** [read t ~reader var] is [lookup t var] made by a view component whose
    reader bit is [reader]: the bit is ORed into the variable's readers, so
    a later publish of a changed value marks the component stale.  A miss
    registers the reader too, for the variable's first write. *)
val read : t -> reader:int -> string -> Repr.t option

(** A variable's slot in the replay, as {!cell} returns it. *)
type cell

(** [cell t ~reader var] is the probe behind {!read}: it registers [reader]
    on [var] (creating a value-less cell on a miss) and returns the cell.
    The cell stays [var]'s until {!restore}, so a reader that keeps it may
    read it later with {!value} instead of probing again: its reader bit
    is still registered. *)
val cell : t -> reader:int -> string -> cell

(** Current visible value of a cell, [None] until first published. *)
val value : cell -> Repr.t option

(** [take_stale t ~owner] returns the reader bits of every variable
    published with a changed value since [owner]'s previous call, and
    clears them.  One reader at a time owns the bits: when [owner] did not
    make the previous call, or after {!restore}, the result is [-1] (every
    bit), since registrations made for someone else say nothing about
    [owner]'s components. *)
val take_stale : t -> owner:int -> int

val fold : (string -> Repr.t -> 'a -> 'a) -> t -> 'a -> 'a

(** [snapshot t] serializes the whole replay — visible variables {e and}
    open commit blocks with their buffered writes — so a checkpoint taken
    while a thread is mid-commit-block replays identically. *)
val snapshot : t -> Repr.t

(** [restore t repr] replaces [t]'s contents with a snapshot.  Reader
    registrations are dropped with the old cells, so the next
    {!take_stale} reports every bit and every memoized view component, key
    projections included, is recomputed from the restored variables.  A
    cell kept from before is no longer its variable's: a reader must drop
    the cells it kept when {!take_stale} reports [-1].
    @raise Ckpt.Malformed when [repr] is not a replay snapshot. *)
val restore : t -> Repr.t -> unit
