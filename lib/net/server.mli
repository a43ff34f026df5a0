(** The vyrdd verification daemon.

    A {!Listener} on a Unix-domain (or loopback TCP) stream socket, under
    the [net] metrics family; it runs each connection's session protocol.
    The client's {!Wire.Hello} names the {!Vyrd.Log.level} of the stream;
    the server's session sink is a {!Vyrd_pipeline.Farm} built from its
    shard template at that level, fed every batch, whose merged verdict
    answers {!Wire.Finish} — the two-phase architecture of the paper
    (§4.2, §6.1) with the log crossing a process (and potentially machine)
    boundary.  A checking session also answers a checkpoint barrier from
    its farm and resumes a coordinator's spool ({!Wire.Resume_session}).

    {b Flow control.}  Each session starts with a credit window of [window]
    events and is re-credited only as the farm consumes; a checker that
    falls behind therefore stalls the producer across the socket (bounded
    buffering end to end: socket buffer + one in-flight batch + the farm's
    rings).

    {b Overload degradation.}  When more than [max_sessions] sessions are
    checking concurrently, additional sessions are not refused and not
    dropped: their streams are spilled to {!Vyrd_pipeline.Segment} files
    under [spill_dir] for later offline checking ([vyrd-check check] reads
    them directly), and their verdict names the spool file.  With
    [recheck_spills], the spool is re-checked after the session's fd is
    closed.

    {b Failure containment.}  A torn frame, CRC mismatch, malformed payload,
    protocol-order violation or idle timeout fails {e that session} cleanly:
    the server sends {!Wire.Error} when the socket still accepts writes,
    tears the session's farm down, and keeps serving every other session. *)

module Farm = Vyrd_pipeline.Farm
module Metrics = Vyrd_pipeline.Metrics

type config = {
  addr : Wire.addr;
  shards : Vyrd.Log.level -> Farm.shard list;
      (** per-session farm template, built at the hello-negotiated level
          (e.g. [`Io] hellos get [`Io]-mode shards) *)
  capacity : int;  (** per-shard ring bound (default 4096) *)
  window : int;  (** credit window in events (default 8192) *)
  max_sessions : int;
      (** checking sessions beyond this spill to segment files (default 8) *)
  spill_dir : string;  (** where overload spools go (default [Filename.get_temp_dir_name ()]) *)
  idle_timeout : float;
      (** seconds without a frame before a session is failed; heartbeats
          reset it (default 30) *)
  recheck_spills : bool;
      (** re-check each spilled spool offline once its session finishes and
          a checking slot frees up, instead of leaving all spilled work to
          an operator (default false) *)
  checkpoint_events : int;
      (** checkpoint-frame spacing (in events) that spill re-checks append
          to the spool, so the next pass over it resumes instead of
          replaying (default 50_000) *)
  analyze : bool;
      (** attach fresh {!Vyrd_analysis.Pass} instances (picked by the
          session's hello level) to every session farm: diagnostics counts
          surface in the [analysis.*] metrics family (default false) *)
  monitors : unit -> Vyrd_analysis.Pass.t list;
      (** fresh temporal-monitor passes to attach to every session farm
          (monitor state is per-stream, hence a factory; default none).
          Their violation counts roll up into [net.monitor_events] /
          [net.monitor_violations]. *)
  metrics : Metrics.t;
}

(** [config ~addr shards] with the defaults above.
    @raise Invalid_argument when [capacity], [window] or
      [checkpoint_events] is not positive. *)
val config :
  ?capacity:int ->
  ?window:int ->
  ?max_sessions:int ->
  ?spill_dir:string ->
  ?idle_timeout:float ->
  ?recheck_spills:bool ->
  ?checkpoint_events:int ->
  ?analyze:bool ->
  ?monitors:(unit -> Vyrd_analysis.Pass.t list) ->
  ?metrics:Metrics.t ->
  addr:Wire.addr ->
  (Vyrd.Log.level -> Farm.shard list) ->
  config

type t

(** [start config] binds, listens and spawns the accept loop, all through
    {!Listener} under the [net] metrics family.
    @raise Unix.Unix_error when the address cannot be bound. *)
val start : config -> t

(** The actually-bound address — resolves port [0] to the kernel-assigned
    port for TCP. *)
val addr : t -> Wire.addr

val metrics : t -> Metrics.t

(** Connections accepted so far, control connections included. *)
val sessions : t -> int

(** Data sessions currently open (control connections excluded). *)
val active : t -> int

(** {1 Cluster membership}

    A coordinator opens a {e control connection} ({!Wire.Register} instead
    of a hello) to poll health ({!Wire.Status_request}) and order a drain
    ({!Wire.Drain}).  A control connection is not a session: it has no
    idle timeout, {!active} and the status reply's [st_active] leave it
    out, and {!stop} does not wait for it.  These accessors expose the same
    state in-process. *)

(** Stop accepting new data sessions (their hellos are refused with an
    error); live sessions keep running to their verdicts.  This is the
    drain hook a cluster uses to rotate a worker out without abandoning
    work. *)
val drain : t -> unit

val draining : t -> bool

(** The name the coordinator registered this worker under, if any. *)
val registered : t -> string option

(** [recheck t ~path] checks the spilled spool at [path] through the
    server's farm template, resuming from its latest usable checkpoint
    frame ({!Vyrd_pipeline.Resume.resume}) and appending fresh
    checkpoints every [checkpoint_events].  This is the routine the
    [recheck_spills] mode runs opportunistically after a spilled session's
    verdict, under the same [max_sessions] slot accounting as live
    checking; counted in the [net.spill_recheck*] metrics. *)
val recheck : t -> path:string -> Vyrd_pipeline.Resume.outcome

(** [stop t] shuts down gracefully: stop accepting, let every open session
    drain (serve it to its verdict) for up to [deadline] seconds (default
    10), then force-close the stragglers.  Idempotent.  The Unix socket
    file, if any, is unlinked. *)
val stop : ?deadline:float -> t -> unit
