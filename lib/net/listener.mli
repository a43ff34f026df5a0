(** The connection lifecycle shared by the vyrdd {!Server} and the vyrdc
    coordinator: bind, the accept loop, one thread per connection,
    first-frame dispatch, failure containment and the drain-then-force
    shutdown.  A daemon supplies only what its sessions do ({!handlers}).

    {b Dispatch.}  The first frame of a connection decides what it is:
    - a {!Wire.Hello} (after the protocol-version check) opens a
      {e data session}, served by [handlers.data] under the idle timeout
      ([SO_RCVTIMEO] and [SO_SNDTIMEO]);
    - a {!Wire.Status_request} or {!Wire.Register} opens a
      {e control connection}: its timeouts are disarmed (it is polled at
      its peer's pace), it answers [Status_request] with
      [handlers.status ()], [Heartbeat] with [Heartbeat_ack], ends on
      [Finish] or a clean close, and hands every other message (the
      opening [Register] included) to [handlers.control].  Control
      connections are not sessions: {!active} leaves them out and {!stop}
      does not wait for them.

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

type handlers = {
  data : session -> Wire.reader -> Wire.hello -> unit -> unit;
      (** serve a data session from its version-checked hello to its
          verdict; raise to fail it.  Returns a step that runs after the
          session's fd is closed, while the session still counts as
          {!active} (vyrdd re-checks a spilled spool there). *)
  status : unit -> Wire.status;  (** the reply to a [Status_request] *)
  control : Wire.client_msg -> bool;
      (** act on a control message other than [Status_request],
          [Heartbeat] and [Finish]; [true] answers it with [status ()],
          [false] fails the connection as a protocol error. *)
}

type t

(** [bind ~family ~metrics ~idle_timeout addr] binds and listens on [addr]
    (a stale Unix socket file is replaced; TCP sets [SO_REUSEADDR]) and
    registers [<family>.sessions], [.sessions_failed], [.accept_errors] and
    [.sessions_peak] in [metrics].  Nothing is accepted before {!serve}.
    @raise Unix.Unix_error when the address cannot be bound. *)
val bind : family:string -> metrics:Metrics.t -> idle_timeout:float -> Wire.addr -> t

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
