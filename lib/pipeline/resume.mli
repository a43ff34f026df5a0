(** Checkpointed O(suffix) re-checking of binary spools, on the farm.

    VYRD's two-phase design re-checks logs after the fact — spilled vyrdd
    sessions, sessions a cluster worker adopts on failover, plain
    [vyrd_check check] reruns.  Every such re-check runs through one core:
    a {!Farm} built from [shards] (a single-structure re-check passes a
    one-shard list), restored from the spool's newest usable {!Farm.checkpoint}
    frame, fed only the event suffix.  [farm/1] farm checkpoints are the one
    payload any tool writes into a spool.

    {b Resume protocol.}  The spool is recovered (clean CRC prefix, as
    always), its checkpoint frames collected and tried newest first: restore
    into a fresh farm, feed the suffix.  A checkpoint that fails — wrong
    format tag (an older [checker/1] frame included), version skew, a shard
    list it was not taken with, spec [load] rejection — falls back to the
    next older one and finally to a full replay of the recovered events.
    Fallback changes how much is replayed, never the verdict: for every
    checkpoint position, resume-verdict = offline-verdict with the same
    fail index.  [shards] maps the spool's recorded level to the shard
    list; a [`View] shard on a spool recorded below [`View] raises
    [Invalid_argument] (from {!Farm.start}). *)

type outcome = {
  report : Vyrd.Report.t;
  fail_index : int option;
      (** global stream index of the violating event, as in {!Farm} *)
  total : int;  (** events recovered from the spool *)
  replayed : int;  (** events actually fed through the farm *)
  resumed_at : int option;
      (** event index of the checkpoint used; [None] = full replay *)
  truncated : bool;  (** the spool had a torn or corrupt tail *)
  checkpoints : int;  (** checkpoint frames this call appended to the spool *)
}

(** [resume ~shards ~path ()] checks the spool at [path] from its newest
    usable checkpoint (see the resume protocol above).
    @param at only use checkpoints covering at most [at] events — [~at:0]
      forces a full replay; the whole suffix is always checked.
    @param annotate_every also append a fresh farm checkpoint frame at every
      multiple of this many events past the resume point, plus one covering
      the full spool, so the {e next} re-check is O(1) in replay work.
      Skipped on truncated spools (frames after a torn tail would be
      unreachable). *)
val resume :
  ?capacity:int ->
  ?metrics:Metrics.t ->
  ?at:int ->
  ?annotate_every:int ->
  shards:(Vyrd.Log.level -> Farm.shard list) ->
  path:string ->
  unit ->
  outcome

(** {!resume} over an already-recovered {!Segment.recovered}, without
    annotation — lets a benchmark time checking apart from disk recovery. *)
val resume_recovered :
  ?capacity:int ->
  ?metrics:Metrics.t ->
  ?at:int ->
  shards:(Vyrd.Log.level -> Farm.shard list) ->
  Segment.recovered ->
  outcome

(** A farm handed back {e live} after a resume: the spool's events are fed
    but nothing is finished, so the caller can keep streaming into it. *)
type resumed_farm = {
  rf_farm : Farm.t;
  rf_total : int;  (** events recovered from the spool and already fed *)
  rf_replayed : int;  (** events actually fed (suffix after the checkpoint) *)
  rf_resumed_at : int option;  (** [None] = full replay *)
}

(** [resume_open ~shards ~path ()] is {!resume} stopped just before the
    drain: restore the newest usable checkpoint (same fallback chain), feed
    the suffix, and return the farm still open.  This is how a worker
    adopts a half-streamed session during cluster failover: replay the
    coordinator's spool to the point the stream died, then continue from
    the wire.  Global fail indices are preserved across the restore, so
    verdicts are identical to a single uninterrupted session. *)
val resume_open :
  ?capacity:int ->
  ?metrics:Metrics.t ->
  ?passes:Vyrd_analysis.Pass.t list ->
  ?at:int ->
  shards:(Vyrd.Log.level -> Farm.shard list) ->
  path:string ->
  unit ->
  resumed_farm
