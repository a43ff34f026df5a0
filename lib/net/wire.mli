(** The vyrdd wire protocol.

    VYRD's architecture decouples cheap in-process logging from checking
    that may run "offline, possibly on a different machine" (§4.2, §6.1);
    this module is the socket format of that decoupling, the network
    counterpart of the {!Vyrd_pipeline.Segment} disk format.  A session is
    a sequence of {e frames} in each direction over one stream socket:

    {v payload length (u32 LE) | crc32(payload) (u32 LE) | payload v}

    where the payload is one {!Bincodec}-encoded message (one tag byte,
    then the fields in order).  Decoding is total: a bad length, a CRC
    mismatch or a malformed payload raises {!Vyrd_pipeline.Bincodec.Corrupt},
    never an out-of-bounds access — the receiving end fails the session
    cleanly at the first damaged frame.  Frames are read by
    {!Vyrd_pipeline.Bincodec.read_frame}, the same bounded, CRC-first reader
    that recovers segment spools: a torn or damaged frame that fails a
    session here ends the clean prefix of a spool there.

    {b Session shape.}  The client opens with {!Hello} carrying the protocol
    version and the {!Vyrd.Log.level} of the stream about to be sent (level
    negotiation: the server builds its per-session checker farm to match).
    The server answers {!Hello_ack} with an initial {e credit} — the number
    of events the client may send before it must wait for a {!Credit}
    replenishment.  Credits are granted only as the server's checker farm
    actually consumes events, so a slow checker exerts backpressure across
    the socket instead of buffering without bound.  {!Batch} carries events;
    {!Heartbeat}/{!Heartbeat_ack} keep an idle session alive across the
    server's idle timeout; {!Finish} asks for the drain: the server finishes
    its farm and replies with a {!Verdict} carrying the merged
    {!Vyrd.Report.t}, or with [spilled] set when overload degraded the
    session to spooling {!Vyrd_pipeline.Segment} files for later offline
    checking. *)

(** Protocol version carried in {!Hello} / {!Hello_ack}. *)
val version : int

(** Frames larger than this are rejected as corrupt before any allocation
    ({!read_frame}'s default [max_bytes]). *)
val max_frame_bytes : int

(** {1 Messages} *)

type hello = {
  h_version : int;
  h_level : Vyrd.Log.level;  (** level of the event stream to follow *)
  h_producer : string;  (** free-form client identification, for logs/metrics *)
}

type client_msg =
  | Hello of hello
  | Batch of Vyrd.Event.t array
  | Heartbeat
  | Finish  (** drain request: no more events, send the verdict *)
  | Resume_session of string
      (** cluster failover: sent right after {!Hello}, before any {!Batch} —
          the server replays the segment spool at this ({e server-local})
          path from its newest valid checkpoint frame and keeps the session
          open for further batches; answered with {!Resume_ack}.  The
          resumed events do not consume wire credit. *)
  | Checkpoint_request
      (** in-band barrier: snapshot the session farm covering exactly the
          events received so far; answered with {!Checkpoint_state} *)
  | Drain
      (** control connections only: stop accepting new sessions, let live
          ones run to their verdicts; answered with {!Status} *)
  | Status_request  (** health/metrics scrape; answered with {!Status} *)
  | Register of string
      (** opens a {e control connection} (sent instead of {!Hello}): the
          coordinator names this worker and the server answers {!Status};
          further {!Status_request}/{!Drain} messages poll it *)

(** The server's reply to {!Finish}. *)
type verdict = {
  v_report : Vyrd.Report.t;  (** merged farm report; trivial pass when spilled *)
  v_fail_index : int option;
      (** stream index (0-based, in submission order) of the event that
          triggered the violation *)
  v_events : int;  (** events the server consumed *)
  v_spilled : string option;
      (** when overload degraded the session: path of the segment spool
          holding the stream for later offline checking *)
}

(** [spilled_verdict ~events path] is the verdict of a session that
    overload degraded to the spool at [path]: a trivial pass over [events]
    events, to be checked later offline. *)
val spilled_verdict : events:int -> string -> verdict

(** A worker's health report, carried on control connections so the
    coordinator can piggyback liveness and scrape metrics in one poll. *)
type status = {
  st_draining : bool;
  st_active : int;  (** sessions currently open *)
  st_checking : int;  (** sessions holding a checking slot *)
  st_metrics : string;  (** {!Vyrd_pipeline.Metrics.encode} snapshot *)
}

type server_msg =
  | Hello_ack of { a_version : int; a_session : int; a_credit : int; a_spilling : bool }
  | Credit of int  (** additional events the client may send *)
  | Heartbeat_ack
  | Verdict of verdict
  | Error of string  (** session failed; no verdict will follow *)
  | Resume_ack of { ra_events : int; ra_resumed_at : int option; ra_replayed : int }
      (** spool replayed: [ra_events] events recovered and fed,
          [ra_resumed_at] the checkpoint used ([None] = full replay),
          [ra_replayed] events actually re-fed *)
  | Checkpoint_state of { cs_events : int; cs_state : Vyrd.Repr.t option }
      (** barrier result: farm state covering the first [cs_events] events,
          or [None] when the farm cannot snapshot (violation found, spilling
          session) *)
  | Status of status

(** {1 Encoding}

    [decode_*] raise {!Vyrd_pipeline.Bincodec.Corrupt} on malformed
    payloads. *)

val encode_client : client_msg -> string
val decode_client : string -> client_msg
val encode_server : server_msg -> string
val decode_server : string -> server_msg

(** The report codec used inside {!Verdict} (exposed for tests). *)
val put_report : Vyrd_pipeline.Bincodec.writer -> Vyrd.Report.t -> unit

val read_report : Vyrd_pipeline.Bincodec.cursor -> Vyrd.Report.t

(** {1 Framing} *)

(** Raised by {!read_frame} on a clean end of stream at a frame boundary;
    the same exception as {!Vyrd_pipeline.Bincodec.Closed}. *)
exception Closed

(** Raised by {!read_frame} when the socket's receive timeout expires
    (the server's idle/heartbeat timeout); the same exception as
    {!Vyrd_pipeline.Bincodec.Timeout}. *)
exception Timeout

(** [frame payload] is the framed bytes: length, CRC, payload. *)
val frame : string -> string

(** {2 Sending on a reusable buffer}

    [write_client w fd msg] clears [w], encodes [msg] into it behind an
    8-byte header slot, patches the length and CRC in place and sends the
    frame with one write; returns the frame's size in bytes.  [w] belongs
    to the caller (one per connection) and may be reused as soon as this
    returns.  The bytes sent equal [frame (encode_client msg)]. *)
val write_client : Vyrd_pipeline.Bincodec.writer -> Unix.file_descr -> client_msg -> int

(** [write_batch w fd evs ~pos ~len] is [write_client w fd (Batch sub)]
    for [sub] the events [pos .. pos + len - 1], without copying them out.
    @raise Invalid_argument when the slice is out of bounds. *)
val write_batch :
  Vyrd_pipeline.Bincodec.writer ->
  Unix.file_descr ->
  Vyrd.Event.t array ->
  pos:int ->
  len:int ->
  int

(** {2 Receiving into a reusable buffer} *)

(** A connection's receive side: one {!Vyrd_pipeline.Bincodec.frame_reader},
    whose payload buffer grows to the largest frame seen and is reused for
    every later frame, plus the event array {!recv} decodes batches into.
    Owned by the one thread reading the connection. *)
type reader

val reader : unit -> reader

(** A received client message.  [Events (evs, n)]: a {!Batch} whose [n]
    events are [evs.(0) .. evs.(n - 1)] — [evs] is the reader's own array,
    valid until the next {!recv} on that reader.  [Message m] is any other
    message (never a [Batch]). *)
type inbound = Events of Vyrd.Event.t array * int | Message of client_msg

(** [recv r fd] reads one frame into [r] and decodes it.  Every event is
    fully materialized (no string aliases [r]'s buffer) before this
    returns, and the decoder sees only the current payload.
    @raise Closed on EOF at a frame boundary.
    @raise Vyrd_pipeline.Bincodec.Corrupt on a torn frame, a length over
      [max_bytes] (checked before any allocation), a CRC mismatch (checked
      before decoding) or a malformed payload.
    @raise Timeout when the descriptor's [SO_RCVTIMEO] expires. *)
val recv : ?max_bytes:int -> reader -> Unix.file_descr -> inbound

(** Size of the last frame {!recv} read, header included. *)
val frame_bytes : reader -> int

(** [read_frame fd] reads one whole frame and returns a copy of its
    payload; it raises exactly what {!recv} raises before decoding. *)
val read_frame : ?max_bytes:int -> Unix.file_descr -> string

(** Convenience compositions for cold paths (a fresh buffer per call). *)
val send_client : Unix.file_descr -> client_msg -> unit

val send_server : Unix.file_descr -> server_msg -> unit
val recv_server : ?max_bytes:int -> Unix.file_descr -> server_msg

(** {1 Addresses} *)

type addr =
  | Unix_socket of string  (** path of a Unix-domain stream socket *)
  | Tcp of string * int  (** host, port *)

(** ["host:port"] (numeric port) parses as {!Tcp}, anything else as
    {!Unix_socket}. *)
val addr_of_string : string -> addr

val pp_addr : Format.formatter -> addr -> unit

(** [sockaddr_of_addr addr] resolves to a [Unix.sockaddr] ready for
    [connect]/[bind].  @raise Not_found when a TCP host does not resolve. *)
val sockaddr_of_addr : addr -> Unix.sockaddr
