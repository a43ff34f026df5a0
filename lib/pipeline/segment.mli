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

    {b Crash recovery.}  A reader validates each segment's length and CRC
    before decoding; at the first torn or corrupt frame it stops and returns
    everything before it.  Every event of every CRC-valid prefix segment is
    preserved — a crash mid-write costs at most the unsealed tail. *)

(** First bytes of every segment file. *)
val magic : string

(** [is_binary path] sniffs whether [path] starts with {!magic} (false for
    missing or short files) — used to route between the binary reader and
    the textual {!Vyrd.Log.of_file}. *)
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
    {e checkpoint frame}: same [len|crc|count] framing, but with bit 31 of
    the count word set and a payload of [events-so-far (uvarint) | state
    ({!Bincodec.put_repr})].  The frame means "after the first
    [writer_events w] events of this stream, the farm state was
    [state]".  Readers that are only after the events skip these frames;
    {!read_from_checkpoint} collects them. *)
val append_checkpoint : writer -> Vyrd.Repr.t -> unit

(** [write_file path log] spools a whole in-memory log to a single binary
    file. *)
val write_file : ?segment_bytes:int -> string -> Vyrd.Log.t -> unit

(** {1 Reading} *)

type recovered = {
  log : Vyrd.Log.t;  (** events of every CRC-valid segment, at the header level *)
  segments : int;
  bytes : int;  (** bytes consumed as valid *)
  truncated : bool;  (** a torn or corrupt tail was discarded *)
  files : string list;
}

(** @raise Bincodec.Corrupt when [path] is not a segment file at all (bad
    magic) — truncated or corrupt {e tails} are recovered, not raised. *)
val read_file : string -> recovered

(** [read_files paths] concatenates a rotation sequence in list order.
    Corruption in any file ends the stream there (marked [truncated]). *)
val read_files : string list -> recovered

(** [read_prefix path] reads [path] itself when it exists, otherwise the
    sorted rotation set [path.00000], [path.00001], ... *)
val read_prefix : string -> recovered

(** {1 Checkpoints}

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

type resumable = {
  r_recovered : recovered;
  r_checkpoints : checkpoint list;
      (** valid checkpoints in stream order; a frame claiming to cover more
          events than precede it is dropped here *)
}

(** [read_from_checkpoint path] reads like {!read_prefix} but also collects
    every valid checkpoint frame. *)
val read_from_checkpoint : string -> resumable

(** Latest checkpoint covering at most [at] events (default: all recovered
    events). *)
val latest_checkpoint : ?at:int -> resumable -> checkpoint option

(** [append_checkpoint_file path ~events state] appends one checkpoint
    frame to an existing spool ([path] or the last file of its rotation
    set) without rewriting any events — how a re-check annotates a spool it
    just verified.  [events] is the number of events the state covers;
    frames claiming more events than the spool holds are ignored by
    readers. *)
val append_checkpoint_file : string -> events:int -> Vyrd.Repr.t -> unit
