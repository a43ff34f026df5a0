(** Instrumentation helpers (paper §6.1).

    A {!ctx} couples the scheduling substrate with a log.  Data structures
    built on a [ctx] get, with no further effort:
    - call/return/commit records for their public methods;
    - logged shared cells whose writes reach the log atomically with the
      store (the paper's requirement that "each logged action be performed
      atomically with the corresponding log update", §4.2);
    - scheduling points on every shared access, which is what lets the
      deterministic engine explore racy interleavings. *)

type ctx = { sched : Vyrd_sched.Sched.t; log : Log.t }

val make : Vyrd_sched.Sched.t -> Log.t -> ctx

(** {1 Method boundaries} *)

val call : ctx -> string -> Repr.t list -> unit
val return_ : ctx -> string -> Repr.t -> unit

(** [commit ctx] marks the commit action of the calling thread's current
    method execution (§4.1). *)
val commit : ctx -> unit

val block_begin : ctx -> unit
val block_end : ctx -> unit

(** [with_block ctx f] brackets [f] in a commit block (§5.2). *)
val with_block : ctx -> (unit -> 'a) -> 'a

(** Seeded mutant ({!Vyrd_faults.Faults}): when armed, {!with_block} emits no
    brackets, so the blocked writes replay one by one instead of atomically
    at the commit. *)
val fault_dropped_block : Vyrd_faults.Faults.t

(** [op ctx mid args body] logs the call, runs [body], logs and returns its
    result.  The standard wrapper for a public method. *)
val op : ctx -> string -> Repr.t list -> (unit -> Repr.t) -> Repr.t

(** {1 Shared state} *)

module Cell : sig
  type 'a t

  (** [make ctx ~name ~repr init] creates a logged shared cell: every {!set}
      appends a [Write] event carrying [repr value].  [name] is the
      variable identifier seen by the replayer — it should be stable and
      unique, e.g. ["A[3].elt"]. *)
  val make : ctx -> name:string -> repr:('a -> Repr.t) -> 'a -> 'a t

  (** A shared cell outside [supp(view)]: scheduling points but no log
      traffic. *)
  val make_silent : ctx -> name:string -> 'a -> 'a t

  (** [get c]: scheduling point, then read (logged as [Read] at [`Full]). *)
  val get : 'a t -> 'a

  (** [set c v]: scheduling point, then store coupled atomically with its
      [Write] record. *)
  val set : 'a t -> 'a -> unit

  (** [set_and_commit c v] stores [v] and records the [Write] and the
      [Commit] of the current method execution as one atomic step — the
      usual shape of a mutator's commit action ("an atomic write to a shared
      variable", §4.3). *)
  val set_and_commit : 'a t -> 'a -> unit

  (** Read without scheduling point or logging (initialization, assertions,
      post-run inspection). *)
  val peek : 'a t -> 'a

  (** Write without scheduling point; the [Write] record is still appended
      for logged cells (used by initialization that must be visible to the
      replayer). *)
  val poke : 'a t -> 'a -> unit

  val name : _ t -> string
end

(** {1 Coarse-grained logging (§6.2)}

    For data-structure-specific log entries: when a whole group of low-level
    actions is known to be atomic (e.g. a node write that goes through a
    separately-verified cache), it can be logged as a single [Write]. *)

(** [log_write ctx ~var v] appends a [Write] event for [var]. *)
val log_write : ctx -> var:string -> Repr.t -> unit

(** [log_write_commit ctx ~var v] appends the [Write] and the [Commit] of
    the current method execution as one atomic step. *)
val log_write_commit : ctx -> var:string -> Repr.t -> unit

(** [mutex ctx ~name] is a scheduler mutex whose transitions are logged as
    [Acquire]/[Release] at level [`Full] (consumed by the reduction
    baseline, not by refinement checking).  Below [`Full] it is the
    engine's mutex itself. *)
val mutex : ctx -> name:string -> Vyrd_sched.Sched.mutex
