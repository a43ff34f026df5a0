(** Binary log segments: durable spool between logging and checking.

    VYRD's architecture decouples cheap in-process logging from (possibly
    offline, possibly remote) checking (§4.2, §6.1).  This module is the
    disk format of that decoupling: a stream of length-prefixed,
    CRC32-checksummed segments of {!Bincodec}-encoded events, preceded by a
    header recording the {!Vyrd.Log.level} — the binary counterpart of the
    textual [# vyrd-log level=...] header.

    {b File layout.}  [magic (6 bytes) | level (1 byte)] then zero or more
    segments, each [payload length (u32 LE) | crc32(payload) (u32 LE) |
    event count (u32 LE) | payload].  A {!writer} seals a segment when its
    buffer reaches [segment_bytes] and, when [rotate_bytes] is set, starts a
    new numbered file ([<path>.00000], [<path>.00001], ...) once the current
    file exceeds that size — so a long run spools to disk with bounded
    buffering and bounded per-file size.

    {b Crash recovery.}  {!read} takes every frame through
    {!Bincodec.read_frame}, the bounded, CRC-first reader the vyrdd socket
    uses: a frame's length is checked against the bytes left in its file
    before any buffer grows, and its CRC before anything decodes.  At the
    first torn or corrupt frame the reader stops and returns everything
    before it, so every event of every CRC-valid prefix segment is
    preserved — a crash mid-write costs at most the unsealed tail.  The
    count word is outside the CRC: exactly 2^31 marks a checkpoint frame,
    and any other count must match the events the payload holds, or the
    read raises {!Bincodec.Corrupt} rather than leave a hole in the
    stream. *)

(** First bytes of every segment file. *)
val magic : string

(** [is_binary path] sniffs whether the first file {!read} would read for
    [path] ([path] itself, or else the first file of its rotation set)
    starts with {!magic}; false when there is none or it is short.  Routes
    between the binary reader and the textual {!Vyrd.Log.of_file}. *)
val is_binary : string -> bool

(** {1 Writing} *)

type writer

(** [create_writer ~level path] opens a streaming writer.  Not thread-safe:
    serialize appends externally (a {!Vyrd.Log} listener already runs under
    the log lock).
    @param segment_bytes seal a segment once its payload reaches this size
      (default 65536).
    @param rotate_bytes when given, rotate to a new numbered file once the
      current one exceeds this size; without it everything goes to [path]. *)
val create_writer :
  ?segment_bytes:int -> ?rotate_bytes:int -> level:Vyrd.Log.level -> string -> writer

val append : writer -> Vyrd.Event.t -> unit

(** Seal the buffered events into a segment now (durability point). *)
val flush : writer -> unit

(** [close w] flushes and closes; further appends raise [Invalid_argument]. *)
val close : writer -> unit

(** [attach w log] subscribes the writer to every subsequently appended
    event. *)
val attach : writer -> Vyrd.Log.t -> unit

(** Files written so far, in stream order. *)
val writer_files : writer -> string list

(** Total bytes written (framing included), across all files. *)
val writer_bytes : writer -> int

val writer_segments : writer -> int
val writer_events : writer -> int

(** Checkpoint frames written so far. *)
val writer_checkpoints : writer -> int

(** [append_checkpoint w state] seals any buffered events, then writes a
    {e checkpoint frame}: same [len|crc|count] framing, but with a count
    word of exactly 2^31 and a payload of [events-so-far (uvarint) | state
    ({!Bincodec.put_repr})].  The frame means "after the first
    [writer_events w] events of this stream, the farm state was
    [state]".  {!read} collects these frames apart from the events. *)
val append_checkpoint : writer -> Vyrd.Repr.t -> unit

(** [write_file path log] spools a whole in-memory log to a single binary
    file. *)
val write_file : ?segment_bytes:int -> string -> Vyrd.Log.t -> unit

(** {1 Reading}

    A checkpoint frame carries an opaque farm checkpoint together with the
    number of stream events it covers.  Corruption handling follows the
    segment rules: a torn or CRC-invalid checkpoint frame ends the clean
    prefix exactly like a torn event segment (everything before it is
    recovered); a CRC-valid frame whose payload does not decode is skipped
    — either way resume falls back to an earlier checkpoint or a full
    replay of the recovered events, never to a different verdict. *)

type checkpoint = {
  ck_events : int;  (** stream events preceding (covered by) this frame *)
  ck_state : Vyrd.Repr.t;  (** opaque farm checkpoint *)
}

type recovered = {
  log : Vyrd.Log.t;  (** events of every CRC-valid segment, at the header level *)
  segments : int;
  bytes : int;  (** bytes consumed as valid *)
  truncated : bool;  (** a torn or corrupt tail was discarded *)
  files : string list;
  checkpoints : checkpoint list;
      (** valid checkpoints in stream order; a frame claiming to cover more
          events than precede it is dropped *)
}

(** [read path] reads [path] itself when it exists, otherwise the sorted
    rotation set [path.00000], [path.00001], ..., concatenated in that
    order; corruption in any file ends the stream there (marked
    [truncated]).
    @raise Bincodec.Corrupt when there is no such file or rotation set,
      when the first file is not a segment file at all (bad magic), or on
      a CRC-valid frame whose count word does not match its payload —
      truncated or corrupt {e tails} are recovered, not raised.
    @raise Sys_error when a file cannot be read. *)
val read : string -> recovered

(** [append_checkpoint_file path ~events state] appends one checkpoint
    frame to an existing spool ([path] or the last file of its rotation
    set) without rewriting any events — how a re-check annotates a spool it
    just verified.  [events] is the number of events the state covers;
    frames claiming more events than the spool holds are ignored by
    readers. *)
val append_checkpoint_file : string -> events:int -> Vyrd.Repr.t -> unit
