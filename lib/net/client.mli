(** Client side of the vyrdd wire protocol.

    Connect to a {!Server} (retrying transient failures with exponential
    backoff), stream events — batched, under the server's credit-based flow
    control, so a slow remote checker blocks the sender instead of buffering
    without bound — and {!finish} to obtain the server's verdict.  A client
    can be {!attach}ed to a live {!Vyrd.Log} exactly like
    {!Vyrd_pipeline.Segment.attach}: every subsequently appended event is
    streamed out. *)

(** The server failed the session (its {!Wire.Error} message). *)
exception Server_error of string

type t

(** [connect addr] dials and performs the hello exchange.
    @param retries re-attempts after a transient connect failure
      (connection refused, socket file not there yet, timeouts) —
      default 0.
    @param backoff first retry delay in seconds, doubled per attempt
      (default 0.05).
    @param max_backoff cap on any single retry delay, in seconds (default
      2.0) — the exponential curve flattens here instead of growing into
      multi-minute sleeps at soak-level retry counts.
    @param jitter_seed each delay is spread by ±25% from a
      {!Vyrd_sched.Prng} seeded here (default: the process id), so the
      clients of a recovering server do not reconnect in lockstep; pass a
      seed for a reproducible schedule.
    @param level log level announced in the hello; the server builds its
      checker farm to match (default [`View]).
    @param batch_events events buffered per {!Wire.Batch} frame
      (default 256).
    @param producer free-form identification sent in the hello.
    @raise Unix.Unix_error when every attempt failed.
    @raise Server_error when the server refused the session. *)
val connect :
  ?retries:int ->
  ?backoff:float ->
  ?max_backoff:float ->
  ?jitter_seed:int ->
  ?level:Vyrd.Log.level ->
  ?batch_events:int ->
  ?producer:string ->
  Wire.addr ->
  t

(** Session id assigned by the server. *)
val session : t -> int

(** The server announced it is spilling this session to a segment spool
    (overload degradation) rather than checking it live. *)
val spilling : t -> bool

(** [send t ev] buffers one event, flushing a batch when full.  Blocks
    waiting for credit when the server is behind.
    @raise Server_error if the server failed the session. *)
val send : t -> Vyrd.Event.t -> unit

(** Flush the current partial batch. *)
val flush : t -> unit

(** [send_batch t evs] forwards a whole pre-assembled batch, flushing any
    buffered singles first so order is preserved — the coordinator's relay
    path.  Chunked to the negotiated batch size so credit always covers a
    chunk; each chunk is encoded straight from [evs], which the caller may
    reuse once this returns.
    @param len forward only [evs.(0 .. len - 1)] (default: all of [evs]).
    @raise Server_error if the server failed the session. *)
val send_batch : ?len:int -> t -> Vyrd.Event.t array -> unit

(** [heartbeat t] keeps an idle session alive across the server's idle
    timeout (the ack is consumed by the next credit/verdict wait). *)
val heartbeat : t -> unit

(** [set_timeout t secs] arms [SO_RCVTIMEO]/[SO_SNDTIMEO] on the session
    socket, so a hung (not just dead) server surfaces as {!Wire.Timeout}
    from the next blocking call instead of pinning the caller forever —
    the coordinator arms its worker legs with this. *)
val set_timeout : t -> float -> unit

(** [resume_session t ~path] asks the server to adopt the session spooled
    at [path] ({e on the server's filesystem}): replay it from its newest
    valid checkpoint and keep the session open for further {!send}s.  Must
    be called before any events are sent.  Returns
    [(events, resumed_at, replayed)] as in {!Wire.Resume_ack}.
    @raise Invalid_argument after events were already sent.
    @raise Server_error if the server refused or failed. *)
val resume_session : t -> path:string -> int * int option * int

(** [request_checkpoint t] flushes, then asks the server farm for a barrier
    snapshot covering exactly the events sent so far.  Returns the server's
    consumed count and the state ([None] when the farm cannot snapshot).
    @raise Server_error if the server failed the session. *)
val request_checkpoint : t -> int * Vyrd.Repr.t option

(** [attach t log] subscribes {!send} to every subsequently appended
    event. *)
val attach : t -> Vyrd.Log.t -> unit

val events_sent : t -> int

(** Bytes written to the socket, framing included. *)
val bytes_sent : t -> int

type outcome =
  | Checked of { report : Vyrd.Report.t; fail_index : int option }
      (** the server's merged farm verdict; [fail_index] is the 0-based
          stream index of the violating event *)
  | Spilled of { path : string; events : int }
      (** overload: the stream was spooled to segment file(s) at [path] on
          the {e server's} filesystem for later offline checking *)

(** [finish t] flushes, requests the drain, waits for the verdict and
    closes the socket.
    @raise Server_error if the server failed the session instead. *)
val finish : t -> outcome

(** Abandon the session without a verdict.  Idempotent; {!finish} closes
    implicitly. *)
val close : t -> unit

(** [submit_log addr log] is the one-shot convenience: connect at the log's
    level, stream every event, [finish]. *)
val submit_log :
  ?retries:int -> ?backoff:float -> ?max_backoff:float -> ?jitter_seed:int ->
  ?batch_events:int -> ?producer:string -> Wire.addr -> Vyrd.Log.t -> outcome
