(** The checker farm: one verification lane per data structure.

    This is the repository's one online checker.  A one-shard farm
    {!attach}ed to a log is the paper's separate verification thread
    reading the log tail (§4.2, Table 3); with more shards the tagged event
    stream of a shared log is {e sharded} across one checker lane per
    structure — the routing mirror of {!Vyrd.Spec_compose}, which folds
    several structures into one product specification.  Method events are routed to the component whose
    specification knows the method name (namespaces must be disjoint, the
    {!Vyrd.Spec_compose} precondition); commit and commit-block events
    follow the thread's open call; shared-variable writes outside any call
    (structure initialization) are broadcast so every shard's shadow replay
    sees them; reads and lock events are consumed by no refinement checker
    and are skipped at the router.

    Each shard is fed through a bounded {!Vyrd.Ring}: a producer that
    outruns a shard blocks at the log append until that shard catches up,
    so memory stays bounded under any load (blocking backpressure).

    The checker lanes and the analysis lane ({!start}'s [passes]) are one
    kind of lane: a ring, a router-side pending slice, and one drain loop
    that pops whole slices, steps each event, and — once a step raises —
    stops stepping but keeps draining.  They differ only in what a step
    does and in the barrier: a checker lane answers {!checkpoint}, the
    analysis lane ignores it.  The router boxes each event once, with its
    global index, and every lane it goes to shares that box.

    Each lane runs on a domain of one process-wide pool.  A lane takes a
    parked domain when there is one, so a service that starts farm after
    farm pays a fresh domain's spawn and minor-heap first touch only once;
    otherwise it spawns one (counted in [farm.lane_reuses] and
    [farm.lane_spawns] of the starting farm's registry).  When a lane ends,
    its domain parks for the next lane, unless
    [max 1 (Domain.recommended_domain_count () - 1)] domains are parked in
    the process already; then it exits.  The cap is process-wide because a
    parked domain still takes part in every stop-the-world minor collection
    of the process.  Parked domains end with the process.

    {!finish} implements the drain protocol: close every ring, wait for
    every lane, and merge the per-shard reports {e deterministically} — the
    merged outcome is the violation whose triggering event has the lowest
    global log index, ties broken by shard order, independent of domain
    scheduling. *)

type shard = {
  sh_name : string;
  sh_spec : Vyrd.Spec.t;
  sh_mode : Vyrd.Checker.mode;
  sh_view : Vyrd.View.t option;
  sh_invariants : Vyrd.Checker.invariant list;
}

(** [shard name spec] with I/O mode defaults. *)
val shard :
  ?mode:Vyrd.Checker.mode ->
  ?view:Vyrd.View.t ->
  ?invariants:Vyrd.Checker.invariant list ->
  string ->
  Vyrd.Spec.t ->
  shard

type t

(** [start ~level shards] starts one checker lane per shard.
    @param capacity per-shard ring bound (default 4096).
    @param metrics registry fed by the router and the checker lanes.
    @param level the level of the log about to be streamed — [`View]-mode
      shards reject sub-[`View] levels up front, like {!Vyrd.Checker.check}.
    @param restore a farm checkpoint produced by {!checkpoint} with the
      {e same} shard list: the router's event cursor and thread routing and
      every lane's checker state resume where the checkpoint was taken, so
      only the event suffix needs to be fed.  Lane checkers are restored in
      the calling thread, before any lane starts.
    @raise Invalid_argument on an empty shard list, a [`View] shard without
      a view, or a [`View] shard with a sub-[`View] level.
    @param passes incremental {!Vyrd_analysis.Pass} instances to run
      in-service on a dedicated analysis lane (own ring + domain).  Unlike
      the refinement lanes — whose router skips read and lock events — the
      analysis lane sees the {e whole} stream in feed order.  The lane takes
      no part in {!checkpoint}: after a restore the passes see only the
      resumed suffix, so their diagnostics are advisory on resumed runs.
      Pass summaries come back in {!result} and feed the [analysis.*]
      metrics family.
    @raise Vyrd.Ckpt.Malformed when [restore] is not a farm checkpoint for
      this shard list (wrong tag, lane names, counts, or lane payloads) —
      no lane has started when it raises, so the caller can fall back to an
      older checkpoint or a plain {!start}. *)
val start :
  ?capacity:int ->
  ?metrics:Metrics.t ->
  ?restore:Vyrd.Repr.t ->
  ?passes:Vyrd_analysis.Pass.t list ->
  level:Vyrd.Log.level ->
  shard list ->
  t

(** [checkpoint t] pushes a barrier token down every lane and collects the
    lane snapshots it answers with: the result covers exactly the
    [events_fed t] events routed so far.  [None] when any lane cannot
    snapshot (its checker found a violation, or its specification does not
    checkpoint) or the farm is already finished.  Call from the feeding
    thread (or a log listener), like {!feed}. *)
val checkpoint : t -> Vyrd.Repr.t option

(** [feed t ev] routes one event.  Single producer: call from one thread, or
    from a {!Vyrd.Log} listener (the log lock already serializes those).

    Routed events accumulate in a small per-lane pending slice and enter the
    lane ring through one {!Vyrd.Ring.push_batch} per slice, so the per-event
    mutex handshake of the unbatched design is amortized away.  The slices
    are flushed automatically by {!checkpoint} and {!finish} (and by
    {!flush}); they only ever hold a bounded tail of the stream. *)
val feed : t -> Vyrd.Event.t -> unit

(** [feed_batch t evs] routes a whole array, in order — equivalent to
    [Array.iter (feed t) evs], the entry point the network server uses so a
    wire batch flows to the lane rings in slices end-to-end. *)
val feed_batch : t -> Vyrd.Event.t array -> unit

(** [flush t] pushes every lane's pending slice into its ring.  Only needed
    when the feeder wants previously routed events to become visible to the
    checker lanes {e now} (e.g. before polling for an early verdict) —
    {!checkpoint} and {!finish} flush on their own. *)
val flush : t -> unit

(** [attach t log] subscribes {!feed} to every subsequently appended
    event. *)
val attach : t -> Vyrd.Log.t -> unit

(** Events routed so far. *)
val events_fed : t -> int

type shard_result = {
  sr_name : string;
  sr_report : Vyrd.Report.t;
  sr_fail_index : int option;
      (** global log index of the event that triggered the violation *)
  sr_high_water : int;
  sr_stall_ns : int;
  sr_events : int;  (** events this shard consumed *)
}

type result = {
  merged : Vyrd.Report.t;
      (** deterministic merge: earliest violation by global event index;
          stats are the per-shard sums, [queue_high_water] the maximum *)
  shards : shard_result list;
  fed : int;
  analysis : Vyrd_analysis.Pass.summary list;
      (** one summary per attached pass; [[]] when none were attached *)
}

(** Close every ring (the analysis lane's included), wait for every lane,
    merge.  Idempotent.  When a lane raised — say a user specification's
    [apply] failed with an exception other than [Invalid_argument], which
    the checker reports as an ill-formed log — [finish] re-raises the first such exception in
    lane order, the analysis lane last, once every lane has ended; later
    calls raise it again.  A lane that raised stops checking but keeps
    draining its ring, so {!feed} never blocks on it and {!checkpoint}
    answers [None]. *)
val finish : t -> result

(** Lowest global fail index across the shards, when any failed. *)
val min_fail_index : result -> int option
