(** The connection lifecycle shared by the vyrdd {!Server} and the vyrdc
    coordinator: bind, the accept loop, one thread per connection,
    first-frame dispatch, the data-session protocol, failure containment
    and the drain-then-force shutdown.  A daemon supplies only where a
    session's events go ({!sink}) and its status and control replies
    ({!handlers}).

    {b Dispatch.}  The first frame of a connection decides what it is:
    - a {!Wire.Hello} (after the protocol-version check) opens a
      {e data session} under the idle timeout ([SO_RCVTIMEO] and
      [SO_SNDTIMEO]);
    - a {!Wire.Status_request} or {!Wire.Register} opens a
      {e control connection}: its timeouts are disarmed (it is polled at
      its peer's pace), it answers [Status_request] with
      [handlers.status ()], [Heartbeat] with [Heartbeat_ack], ends on
      [Finish] or a clean close, and hands every other message (the
      opening [Register] included) to [handlers.control].  Control
      connections are not sessions: {!active} leaves them out and {!stop}
      does not wait for them.

    {b Data sessions.}  [handlers.data] turns the hello into a {!sink} or
    raises to refuse it.  The listener sends {!Wire.Hello_ack} with a
    [window]-event credit, hands each batch to the sink and grants credit
    back every half window.  It answers [Heartbeat], [Checkpoint_request],
    [Status_request] and (before any event) [Resume_session], and fails the
    session on a second [Hello] or a control message.  On [Finish] it
    counts [<family>.verdicts] {e before} sending the sink's verdict, so a
    client holding the verdict sees it counted.  It also counts
    [<family>.events], [.batches], [.bytes_in], [.credits_granted],
    [.heartbeats] and the [.batch_events] histogram.

    {b Failure containment.}  Any exception out of a connection's thread
    fails that connection alone: the peer gets a best-effort
    {!Wire.Error}, [<family>.sessions_failed] counts it, the fd is closed
    and the session freed. *)

module Metrics = Vyrd_pipeline.Metrics

type session = private {
  id : int;  (** unique per listener, in accept order *)
  fd : Unix.file_descr;
  mutable control : bool;  (** set once the first frame opened a control connection *)
}

(** Where one data session's events go. *)
type sink = {
  spilling : bool;  (** announced in [Hello_ack]: spooled, not checked *)
  batch : Vyrd.Event.t array -> int -> unit;
      (** [batch evs n] takes [evs.(0 .. n - 1)], overwritten by the next frame *)
  heartbeat : unit -> unit;
  checkpoint : unit -> Vyrd.Repr.t option;  (** state covering every event so far *)
  resume : (string -> int * int option * int) option;
      (** replay a spool: events recovered, checkpoint used, events re-fed;
          [None] refuses [Resume_session] *)
  finish : events:int -> Wire.verdict;  (** the verdict over [events] events *)
  close : unit -> unit -> unit;
      (** runs on every exit, before the fd closes; the step it returns runs
          after, once a verdict was sent, while the session is still
          {!active} (vyrdd re-checks a spilled spool there) *)
}

type handlers = {
  data : session -> Wire.hello -> sink;
      (** open a data session from its version-checked hello; raise to
          refuse it *)
  status : unit -> Wire.status;  (** the reply to a [Status_request] *)
  control : Wire.client_msg -> bool;
      (** act on a control message other than [Status_request],
          [Heartbeat] and [Finish]; [true] answers it with [status ()],
          [false] fails the connection as a protocol error. *)
}

type t

(** [bind ~family ~metrics ~idle_timeout ~window addr] binds and listens on
    [addr] (a stale Unix socket file is replaced; TCP sets [SO_REUSEADDR])
    and registers [<family>.sessions], [.sessions_failed], [.accept_errors],
    [.sessions_peak] and the data-session counters in [metrics].  Nothing
    is accepted before {!serve}.
    @raise Unix.Unix_error when the address cannot be bound. *)
val bind :
  family:string -> metrics:Metrics.t -> idle_timeout:float -> window:int -> Wire.addr -> t

(** [serve t handlers] spawns the accept loop.  Transient accept errors
    (e.g. [EMFILE]) back off and count in [<family>.accept_errors]. *)
val serve : t -> handlers -> unit

(** The actually-bound address — port [0] resolves to the kernel's pick. *)
val addr : t -> Wire.addr

(** Connections accepted so far, control connections included. *)
val sessions : t -> int

(** Data sessions currently open (control connections excluded). *)
val active : t -> int

(** [stop] has begun: new connections are closed on accept. *)
val stopping : t -> bool

(** [stop]'s drain deadline has passed and the stragglers are being
    force-closed. *)
val forcing : t -> bool

(** [stop t] stops accepting, lets open data sessions run to their verdicts
    for up to [deadline] seconds (default 10), then sets {!forcing} and
    shuts down every connection still open; their threads fail them
    cleanly.  Returns once every connection thread has finished; the Unix
    socket file, if any, is unlinked.  Idempotent. *)
val stop : ?deadline:float -> t -> unit
