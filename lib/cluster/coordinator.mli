(** The vyrdc cluster coordinator.

    Speaks the plain {!Vyrd_net.Wire} server protocol to clients — the
    session loop is {!Vyrd_net.Listener}'s, the one vyrdd runs, so an
    existing {!Vyrd_net.Client} connects to a coordinator with no source
    changes — and proxies each session to one of N attached [vyrdd]
    workers, chosen by consistent hashing with bounded loads
    ({!Member.acquire}).  The leg to the worker opens at the session's
    first batch, checkpoint or finish.  A coordinator session does not
    accept {!Wire.Resume_session}.

    {b Failover.}  Every client batch is appended to a per-session segment
    spool {e before} it is forwarded, and the coordinator periodically asks
    the owning worker for a barrier snapshot ({!Wire.Checkpoint_request})
    which it appends to the spool as a checkpoint frame.  When a worker
    dies mid-session (send fails, and a fresh-connection probe finds the
    worker unreachable), the coordinator reassigns the session to the next
    ring successor and has it replay the spool from the newest valid
    checkpoint ({!Wire.Resume_session}).  The spool is a superset of
    anything any worker saw, so spool damage or a missing checkpoint only
    raises replay cost — it can never change a verdict; a replay that
    recovers fewer events than were spooled fails the session honestly.

    {b Health.}  A background thread polls each worker's control
    connection ({!Wire.Status_request}) every second,
    piggybacking a metrics scrape on the liveness check; {!aggregate}
    merges the coordinator's own [cluster.*] registry with every worker's
    last snapshot into one cluster-wide view. *)

module Wire = Vyrd_net.Wire
module Metrics = Vyrd_pipeline.Metrics

type config = {
  c_addr : Wire.addr;
  c_window : int;  (** client credit window in events (default 8192) *)
  c_spool_dir : string;  (** per-session failover spools live here *)
  c_checkpoint_events : int;
      (** ask the owning worker for a checkpoint about every this many
          events and append it to the spool; [0] disables (default 25_000) *)
  c_worker_slots : int;
      (** default concurrent-session capacity per worker (default 4) *)
  c_idle_timeout : float;
      (** seconds without a client frame before a session fails (default 30) *)
  c_keep_spools : bool;
      (** keep verdicted sessions' spool files instead of deleting them
          (default false) *)
  c_vnodes : int;  (** ring virtual nodes per worker (default 128) *)
  c_seed : int;  (** ring placement seed (default 0) *)
  c_metrics : Metrics.t;
}

(** [config ~addr ~spool_dir ()] with the defaults above. *)
val config :
  ?window:int ->
  ?checkpoint_events:int ->
  ?worker_slots:int ->
  ?idle_timeout:float ->
  ?keep_spools:bool ->
  ?vnodes:int ->
  ?seed:int ->
  ?metrics:Metrics.t ->
  addr:Wire.addr ->
  spool_dir:string ->
  unit ->
  config

type t

(** [start config] creates the spool directory, binds and listens through
    {!Vyrd_net.Listener} (the accept loop, first-frame dispatch, session
    protocol, failure containment and [cluster.*] session metrics are the
    ones vyrdd uses), and spawns the health-poll thread.  A
    [Status_request] opening a connection makes it a control connection,
    not counted by {!active}; one inside a session is answered too.  Both
    get the aggregated cluster status.  Workers are attached separately
    with {!attach}.
    @raise Unix.Unix_error when the address cannot be bound. *)
val start : config -> t

(** The actually-bound address. *)
val addr : t -> Wire.addr

(** The coordinator's own registry (the [cluster.*] family). *)
val metrics : t -> Metrics.t

(** Cluster-wide view: own registry merged with every worker's last
    scraped snapshot (a fresh registry each call). *)
val aggregate : t -> Metrics.t

(** Connections accepted so far, control connections included. *)
val sessions : t -> int

(** Client data sessions currently open. *)
val active : t -> int

(** {1 Membership} *)

(** [attach t ~name ~addr] dials the worker (retrying while its socket
    appears), registers on a persistent control connection
    ({!Wire.Register}), and adds it to the ring as [Alive].
    @param slots concurrent-session capacity (default [c_worker_slots]).
    @raise Unix.Unix_error when the worker never became reachable. *)
val attach : ?slots:int -> t -> name:string -> addr:Wire.addr -> unit

(** [drain t name] orders the worker to stop accepting new sessions
    ({!Wire.Drain}) and takes it out of the ring; its in-flight legs run
    to their verdicts. *)
val drain : t -> string -> unit

(** All attached workers (including drained and dead ones), sorted by
    name. *)
val workers : t -> Member.worker list

(** The current routing ring over alive workers. *)
val ring : t -> Hashring.t

(** {1 Shutdown} *)

(** [stop t] runs {!Vyrd_net.Listener.stop}: stop accepting, let open
    sessions reach their verdicts for up to [deadline] seconds (default
    10), then force-close the stragglers — legs still being opened give up
    first — and unlink the socket.  It then stops the health thread and
    closes the worker control connections.  Idempotent. *)
val stop : ?deadline:float -> t -> unit
