(** Compact binary codec for log events.

    The streaming pipeline's wire format, alongside the textual
    s-expression format of {!Vyrd.Repr.to_text}: framed records with
    varint-encoded integers and length-prefixed strings.  The original VYRD
    used .NET binary serialization for exactly this reason (§6.1) — logging
    must be cheap enough to leave on under heavy traffic, and the textual
    printer/parser dominates logging cost on hot paths.

    Encoding scheme:
    - unsigned integers: LEB128 varints (7 bits per byte, high bit =
      continuation);
    - signed integers: zigzag-mapped to unsigned first, so small negative
      values stay short;
    - strings: varint byte length, then raw bytes (no escaping);
    - values and events: one tag byte, then the fields in order.

    There is one encoder ([put_*], appending to a reusable {!writer}) and
    one decoder ([read_*], advancing a {!cursor} over a slice).  Segment
    files, wire frames and metrics snapshots all run on them.  Decoding is
    total over arbitrary bytes: malformed input raises {!Corrupt}, never an
    out-of-bounds access, and a cursor never reads past the end of its
    slice — bytes after it (a reused buffer's leftovers) are unreachable. *)

exception Corrupt of string

(** {1 Writers} *)

(** A growable byte buffer that is cleared and refilled rather than
    reallocated: its capacity only grows. *)
type writer

val writer : ?size:int -> unit -> writer
val length : writer -> int

(** [clear w] empties [w], keeping its capacity. *)
val clear : writer -> unit

(** [contents w] copies the written bytes into a fresh string. *)
val contents : writer -> string

(** [bytes w] is the underlying buffer; bytes [0 .. length w - 1] are the
    written ones.  Valid until the next write to [w] (which may replace
    it). *)
val bytes : writer -> Bytes.t

val put_char : writer -> char -> unit

(** [put_raw w s] appends the bytes of [s] as they are (no length). *)
val put_raw : writer -> string -> unit

(** [set_u32 w off n] overwrites bytes [off .. off + 3] with [n]'s low 32
    bits, little-endian.  @raise Invalid_argument past the written bytes. *)
val set_u32 : writer -> int -> int -> unit

(** {1 Cursors} *)

(** A read position over a slice of a string.  The decoders below advance
    it in place, so decoding allocates only the decoded values. *)
type cursor

(** [cursor ?pos ?len s] reads the slice [pos .. pos + len - 1] (default:
    the rest of [s]).  @raise Invalid_argument when out of bounds. *)
val cursor : ?pos:int -> ?len:int -> string -> cursor

(** [retarget c ?pos ~len s] points [c] at a new slice.
    @raise Invalid_argument when out of bounds. *)
val retarget : cursor -> ?pos:int -> len:int -> string -> unit

(** Bytes left in the slice. *)
val remaining : cursor -> int

(** [read_byte c what] @raise Corrupt ["truncated <what>"] at the end of
    the slice. *)
val read_byte : cursor -> string -> char

(** {1 Varints}

    [put_uvarint] encodes an int as an unsigned 63-bit number;
    [put_varint] zigzag-maps it first, so both are total over all of
    [int], including [min_int] and [max_int].  The readers raise
    {!Corrupt} on truncation or a varint longer than 9 bytes. *)

val put_uvarint : writer -> int -> unit
val read_uvarint : cursor -> int
val put_varint : writer -> int -> unit
val read_varint : cursor -> int

(** {1 Strings, values and events} *)

(** [put_string w s] appends a varint byte length, then the raw bytes. *)
val put_string : writer -> string -> unit

(** The result is a fresh copy: it never aliases the cursor's source. *)
val read_string : cursor -> string

(** [read_raw c n] is a copy of the next [n] bytes, as {!put_raw} wrote
    them.  @raise Corrupt when fewer than [n] remain. *)
val read_raw : cursor -> int -> string

val put_repr : writer -> Vyrd.Repr.t -> unit
val read_repr : cursor -> Vyrd.Repr.t
val put_event : writer -> Vyrd.Event.t -> unit

(** Every string of the result is a copy (or a cached copy of an equal
    name), so the source bytes may be reused once this returns. *)
val read_event : cursor -> Vyrd.Event.t

(** [iter_events c f] decodes events up to the end of [c]'s slice and hands
    each to [f]; returns how many were decoded.  The slice must end exactly
    at an event boundary.
    @raise Corrupt on malformed input or an event crossing the slice end. *)
val iter_events : cursor -> (Vyrd.Event.t -> unit) -> int

(** {1 Checksums} *)

(** CRC-32 (IEEE 802.3, polynomial 0xEDB88320) of a substring, computed
    eight bytes per step (slice-by-8); guards wire frames and segment
    payloads against torn writes and bit rot.
    @raise Invalid_argument when the range is out of bounds. *)
val crc32 : ?pos:int -> ?len:int -> string -> int

(** {1 Frames}

    Wire frames and segment frames start with the payload's length and
    CRC-32 (each u32 LE), inside a header of [header >= 8] bytes.  A frame
    is built in one writer: [begin_frame w ~header] empties [w] and leaves
    a zeroed header slot, the payload is appended, and [seal_frame w
    ~header] writes the length and CRC of everything after the slot into
    its first 8 bytes (the caller fills any further header bytes with
    {!set_u32}).  The frame is then [bytes w], [0 .. length w - 1]. *)

val begin_frame : writer -> header:int -> unit
val seal_frame : writer -> header:int -> unit

(** {2 Reading frames}

    One reader serves the socket ([Vyrd_net.Wire]) and the spool
    ({!Segment}): it reads a frame from a Unix descriptor into one payload
    buffer that grows to the largest frame seen and is reused. *)

(** Raised by {!read_frame} on a clean end of stream at a frame
    boundary. *)
exception Closed

(** Raised when the descriptor's [SO_RCVTIMEO] expires. *)
exception Timeout

type frame_reader

(** [frame_reader ~header] reads frames with a [header]-byte header
    (8 on the wire, 12 in a spool).  Owned by one reader thread.
    @raise Invalid_argument when [header < 8]. *)
val frame_reader : header:int -> frame_reader

(** [read_frame r ~max_bytes fd] reads one frame and returns a cursor over
    its payload, valid until the next read on [r].
    @raise Closed on EOF before the first header byte.
    @raise Corrupt on a torn header or payload, a length over [max_bytes]
      (checked before the buffer grows) or a CRC mismatch (checked before
      the cursor is handed out).
    @raise Timeout when the descriptor's receive timeout expires. *)
val read_frame : frame_reader -> max_bytes:int -> Unix.file_descr -> cursor

(** [header_word r i] is the [i]th u32 LE word of the last frame's header:
    [0] is the payload length, [1] its CRC, [2] a spool frame's count. *)
val header_word : frame_reader -> int -> int

(** Size of the last frame read, header included. *)
val frame_size : frame_reader -> int

(** [really_read fd buf n] reads [n] bytes into [buf], restarting on
    [EINTR]; returns how many arrived, fewer than [n] only at end of
    stream.  @raise Timeout as {!read_frame} does. *)
val really_read : Unix.file_descr -> Bytes.t -> int -> int

(** {1 Log levels}

    The one-byte level code of a spool file header and of a [Hello]
    message. *)

val level_code : Vyrd.Log.level -> int

(** @raise Corrupt on an unknown code. *)
val level_of_code : int -> Vyrd.Log.level
