(** The runtime refinement checker (paper §4–§5).

    The checker is an incremental state machine: {!feed} it the events of a
    log in order (offline after the run, or online as they are appended) and
    it maintains the witness interleaving and the specification run.

    Checking logic, in brief:
    - mutator commits are serialized in commit-action order; each commit's
      specification transition is resolved as soon as the method's return
      value is known (the paper's "looking ahead in the execution");
    - observers are validated against every specification state whose commit
      ordinal falls in their call–return window (Fig. 7); an execution of a
      {e mutator} that never reached a commit action performed no transition
      and is validated the same way (exceptional terminations, §1);
    - in [`View] mode, [viewI] is recomputed from the shadow replay at each
      commit (after publishing that thread's commit block) and compared with
      [viewS] of the specification state the transition produces.

    The first violation freezes the checker; statistics record how many
    method executions had been checked — the paper's time-to-detection
    metric.

    [`View] mode presumes the log was recorded at level [`View] (or
    [`Full]): with call/return/commit-only logs the shadow replay would stay
    empty and every mutation would look like a view mismatch, so {!check}
    (and the pipeline farm's [start]) reject such logs up front with
    [Invalid_argument] rather than reporting spurious violations. *)

type mode = [ `Io | `View ]

type t

(** A named predicate over the replayed implementation state, checked at
    every commit action — the paper's runtime invariants for Boxwood's cache
    (§7.2.1).  Requires view-level logging but works in either mode. *)
type invariant = string * (View.lookup -> bool)

(** [create ~mode ?view ?invariants spec] builds a checker.
    @param view required when [mode = `View]. *)
val create : ?mode:mode -> ?view:View.t -> ?invariants:invariant list -> Spec.t -> t

(** [feed t ev] processes one event.  Returns the first violation when this
    event triggers it; afterwards the checker ignores further events. *)
val feed : t -> Event.t -> Report.violation option

(** Current report; also usable mid-stream. *)
val report : t -> Report.t

val violation : t -> Report.violation option

(** Methods fully checked so far. *)
val methods_checked : t -> int

(** Key projections performed by a [Keyed] view (ablation instrumentation);
    [0] for a view built from [Full] components only. *)
val view_projections : t -> int

(** [snapshot t] serializes the checker's complete mid-stream state: the
    commit-order cursor, the retained specification-state window, queued
    commits awaiting their return values, still-open method executions,
    pending observers — an observer whose call straddles the checkpoint
    keeps its full eligible-state window [o_start..o_end] (§4.3), so after
    a restore it is still admitted against {e any} in-window state, exactly
    as in an uninterrupted run — the shadow replay (incl. open commit
    blocks), and the statistics counters.  The view evaluator's memoized
    components are not saved: a restore recomputes every one of them at
    the next commit.

    Returns [None] when a violation has already been found (a frozen
    checker has nothing to resume) or when the specification's [save]
    declines.  Restoring into a checker created with the same
    [mode]/[view]/[invariants]/spec arguments and feeding the remaining
    suffix yields the same verdict, fail position and statistics as an
    uninterrupted run. *)
val snapshot : t -> Repr.t option

(** [restore t repr] replaces [t]'s state with a snapshot.  [t] must have
    been created with the same arguments as the snapshotting checker.
    @raise Ckpt.Malformed (or [Invalid_argument] from the spec's [load])
    when [repr] is not a usable snapshot, including one that names a method
    the spec does not resolve, or records it with another kind; [t] may then be partially
    mutated — discard it and fall back to an older checkpoint or a fresh
    full-replay checker. *)
val restore : t -> Repr.t -> unit

(** [check ?mode ?view log spec] runs a whole log through a fresh checker.
    @raise Invalid_argument when [mode = `View] and [log] was recorded below
    level [`View] — view refinement cannot be checked on such a log. *)
val check :
  ?mode:mode -> ?view:View.t -> ?invariants:invariant list -> Log.t -> Spec.t -> Report.t

(** [check_indexed] is {!check} plus the log index of the event at which the
    violation (if any) was detected — the same index a {!Farm} lane records
    in [sr_fail_index], and the quantity the differential harness compares
    against {!Reference.check_indexed}. *)
val check_indexed :
  ?mode:mode ->
  ?view:View.t ->
  ?invariants:invariant list ->
  Log.t ->
  Spec.t ->
  Report.t * int option
