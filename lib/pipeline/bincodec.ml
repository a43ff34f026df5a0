open Vyrd

exception Corrupt of string

let corrupt fmt = Printf.ksprintf (fun m -> raise (Corrupt m)) fmt

(* -------------------------------------------------------------- writer *)

type writer = { mutable buf : Bytes.t; mutable len : int }

let writer ?(size = 256) () = { buf = Bytes.create (max 16 size); len = 0 }
let length w = w.len
let clear w = w.len <- 0
let contents w = Bytes.sub_string w.buf 0 w.len
let bytes w = w.buf

let grow w n =
  let cap = ref (Bytes.length w.buf) in
  while !cap < w.len + n do
    cap := 2 * !cap
  done;
  let buf = Bytes.create !cap in
  Bytes.blit w.buf 0 buf 0 w.len;
  w.buf <- buf

let ensure w n = if w.len + n > Bytes.length w.buf then grow w n

let put_char w c =
  ensure w 1;
  Bytes.unsafe_set w.buf w.len c;
  w.len <- w.len + 1

let put_raw w s =
  let n = String.length s in
  ensure w n;
  Bytes.unsafe_blit_string s 0 w.buf w.len n;
  w.len <- w.len + n

let set_u32 w off n =
  if off < 0 || off > w.len - 4 then invalid_arg "Bincodec.set_u32";
  Bytes.set_int32_le w.buf off (Int32.of_int (n land 0xffffffff))

(* -------------------------------------------------------------- cursor *)

type cursor = { mutable src : string; mutable pos : int; mutable stop : int }

let check_slice what s pos len =
  if pos < 0 || len < 0 || pos > String.length s - len then
    invalid_arg ("Bincodec." ^ what ^ ": slice out of bounds")

let cursor ?(pos = 0) ?len s =
  let len = match len with Some l -> l | None -> String.length s - pos in
  check_slice "cursor" s pos len;
  { src = s; pos; stop = pos + len }

let retarget c ?(pos = 0) ~len s =
  check_slice "retarget" s pos len;
  c.src <- s;
  c.pos <- pos;
  c.stop <- pos + len

let remaining c = c.stop - c.pos

let read_byte c what =
  if c.pos >= c.stop then corrupt "truncated %s" what;
  let b = String.unsafe_get c.src c.pos in
  c.pos <- c.pos + 1;
  b

(* ------------------------------------------------------------- varints *)

(* LEB128 over the 63-bit native int, treated as unsigned: [lsr] keeps the
   loop total even when the top (sign) bit is set by the zigzag mapping.
   Nine bytes carry 63 bits, so one [ensure] covers the whole number. *)
let rec put_uvarint_at b p n =
  if n lsr 7 = 0 then begin
    Bytes.unsafe_set b p (Char.unsafe_chr n);
    p + 1
  end
  else begin
    Bytes.unsafe_set b p (Char.unsafe_chr (n land 0x7f lor 0x80));
    put_uvarint_at b (p + 1) (n lsr 7)
  end

let put_uvarint w n =
  ensure w 9;
  w.len <- put_uvarint_at w.buf w.len n

let rec read_uvarint_from c acc shift =
  if c.pos >= c.stop then corrupt "truncated varint";
  if shift > 56 then corrupt "varint longer than 9 bytes";
  let b = Char.code (String.unsafe_get c.src c.pos) in
  c.pos <- c.pos + 1;
  let acc = acc lor ((b land 0x7f) lsl shift) in
  if b land 0x80 = 0 then acc else read_uvarint_from c acc (shift + 7)

let read_uvarint c = read_uvarint_from c 0 0

(* Zigzag: 0,-1,1,-2,... -> 0,1,2,3,...; [asr 62] spreads the sign bit of
   the 63-bit int. *)
let put_varint w n = put_uvarint w ((n lsl 1) lxor (n asr 62))

let read_varint c =
  let u = read_uvarint c in
  (u lsr 1) lxor (- (u land 1))

(* ------------------------------------------------------------- strings *)

let put_string w s =
  put_uvarint w (String.length s);
  put_raw w s

(* [pos + n] can overflow to negative when a hostile 9-byte uvarint decodes
   near max_int, so bound [n] by the remaining bytes instead. *)
let read_length c =
  let n = read_uvarint c in
  if n < 0 || n > c.stop - c.pos then corrupt "truncated string (%d bytes)" n;
  n

let read_raw c n =
  if n < 0 || n > c.stop - c.pos then corrupt "truncated bytes (%d wanted)" n;
  let s = String.sub c.src c.pos n in
  c.pos <- c.pos + n;
  s

let read_string c = read_raw c (read_length c)

(* Method, variable and lock names repeat millions of times per log, so the
   name positions of {!read_event} resolve through a direct-mapped cache of
   previously decoded strings instead of allocating a fresh copy each time.
   Collisions and stale entries just fall back to [String.sub]; the cached
   values are immutable, so cross-domain races are benign.  Either way the
   result is a fresh or cached string, never an alias of the source. *)
let intern_size = 4096
let intern : string array = Array.make intern_size ""

let hash_sub s pos n =
  let h = ref n in
  for i = pos to pos + n - 1 do
    h := (!h * 31) + Char.code (String.unsafe_get s i)
  done;
  !h land (intern_size - 1)

let equal_sub s pos n t =
  String.length t = n
  &&
  let rec go i =
    i = n || (String.unsafe_get t i = String.unsafe_get s (pos + i) && go (i + 1))
  in
  go 0

let read_name c =
  let n = read_length c in
  let s = c.src and pos = c.pos in
  c.pos <- pos + n;
  if n > 32 then String.sub s pos n
  else begin
    let h = hash_sub s pos n in
    let t = Array.unsafe_get intern h in
    if equal_sub s pos n t then t
    else begin
      let t = String.sub s pos n in
      Array.unsafe_set intern h t;
      t
    end
  end

(* -------------------------------------------------------------- values *)

let rec put_repr w = function
  | Repr.Unit -> put_char w '\000'
  | Repr.Bool false -> put_char w '\001'
  | Repr.Bool true -> put_char w '\002'
  | Repr.Int n ->
    put_char w '\003';
    put_varint w n
  | Repr.Str s ->
    put_char w '\004';
    put_string w s
  | Repr.Pair (x, y) ->
    put_char w '\005';
    put_repr w x;
    put_repr w y
  | Repr.List vs ->
    put_char w '\006';
    put_reprs w vs

and put_reprs w vs =
  put_uvarint w (List.length vs);
  put_items w vs

and put_items w = function
  | [] -> ()
  | v :: vs ->
    put_repr w v;
    put_items w vs

let rec read_repr c =
  match read_byte c "value" with
  | '\000' -> Repr.Unit
  | '\001' -> Repr.Bool false
  | '\002' -> Repr.Bool true
  | '\003' -> Repr.int (read_varint c) (* 0-255 come from a shared table *)
  | '\004' -> Repr.Str (read_string c)
  | '\005' ->
    let x = read_repr c in
    let y = read_repr c in
    Repr.Pair (x, y)
  | '\006' -> Repr.List (read_reprs c)
  | t -> corrupt "unknown value tag 0x%02x" (Char.code t)

(* a varint count, then that many values; the one-element case (every
   argument list of the benchmark's methods) skips the reversal *)
and read_reprs c =
  match read_uvarint c with
  | 0 -> []
  | 1 -> [ read_repr c ]
  | n ->
    let rec items acc n = if n = 0 then List.rev acc else items (read_repr c :: acc) (n - 1) in
    items [] n

(* -------------------------------------------------------------- events *)

let put_head w tag tid =
  put_char w tag;
  put_uvarint w tid

let put_event w ev =
  match ev with
  | Event.Call { tid; mid; args } ->
    put_head w '\000' tid;
    put_string w mid;
    put_reprs w args
  | Event.Return { tid; mid; value } ->
    put_head w '\001' tid;
    put_string w mid;
    put_repr w value
  | Event.Commit { tid } -> put_head w '\002' tid
  | Event.Write { tid; var; value } ->
    put_head w '\003' tid;
    put_string w var;
    put_repr w value
  | Event.Block_begin { tid } -> put_head w '\004' tid
  | Event.Block_end { tid } -> put_head w '\005' tid
  | Event.Read { tid; var } ->
    put_head w '\006' tid;
    put_string w var
  | Event.Acquire { tid; lock } ->
    put_head w '\007' tid;
    put_string w lock
  | Event.Release { tid; lock } ->
    put_head w '\008' tid;
    put_string w lock

let read_event c =
  let tag = read_byte c "event" in
  let tid = read_uvarint c in
  match tag with
  | '\000' ->
    let mid = read_name c in
    let args = read_reprs c in
    Event.Call { tid; mid; args }
  | '\001' ->
    let mid = read_name c in
    let value = read_repr c in
    Event.Return { tid; mid; value }
  | '\002' -> Event.Commit { tid }
  | '\003' ->
    let var = read_name c in
    let value = read_repr c in
    Event.Write { tid; var; value }
  | '\004' -> Event.Block_begin { tid }
  | '\005' -> Event.Block_end { tid }
  | '\006' -> Event.Read { tid; var = read_name c }
  | '\007' -> Event.Acquire { tid; lock = read_name c }
  | '\008' -> Event.Release { tid; lock = read_name c }
  | t -> corrupt "unknown event tag 0x%02x" (Char.code t)

let iter_events c f =
  let n = ref 0 in
  while c.pos < c.stop do
    f (read_event c);
    incr n
  done;
  !n

(* ------------------------------------------------------------ checksum *)

(* Slice-by-8 CRC-32: table [k] (entries [k * 256 ..]) advances a byte's
   contribution past [k] further bytes, so one step folds eight input bytes
   with eight independent lookups instead of eight dependent ones. *)
let crc_tables =
  let t = Array.make (8 * 256) 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 = 1 then 0xedb88320 lxor (!c lsr 1) else !c lsr 1
    done;
    t.(n) <- !c
  done;
  for k = 1 to 7 do
    for n = 0 to 255 do
      let prev = t.(((k - 1) * 256) + n) in
      t.((k * 256) + n) <- (prev lsr 8) lxor t.(prev land 0xff)
    done
  done;
  t

external get32u : string -> int -> int32 = "%caml_string_get32u"
external swap32 : int32 -> int32 = "%bswap_int32"

let get_u32_le s i =
  if Sys.big_endian then Int32.to_int (swap32 (get32u s i)) land 0xffffffff
  else Int32.to_int (get32u s i) land 0xffffffff

let crc32 ?(pos = 0) ?len s =
  let len = match len with Some l -> l | None -> String.length s - pos in
  check_slice "crc32" s pos len;
  let t = crc_tables in
  let c = ref 0xffffffff in
  let i = ref pos in
  let stop = pos + len in
  while !i <= stop - 8 do
    let lo = !c lxor get_u32_le s !i in
    let hi = get_u32_le s (!i + 4) in
    c :=
      Array.unsafe_get t (0x700 + (lo land 0xff))
      lxor Array.unsafe_get t (0x600 + ((lo lsr 8) land 0xff))
      lxor Array.unsafe_get t (0x500 + ((lo lsr 16) land 0xff))
      lxor Array.unsafe_get t (0x400 + (lo lsr 24))
      lxor Array.unsafe_get t (0x300 + (hi land 0xff))
      lxor Array.unsafe_get t (0x200 + ((hi lsr 8) land 0xff))
      lxor Array.unsafe_get t (0x100 + ((hi lsr 16) land 0xff))
      lxor Array.unsafe_get t (hi lsr 24);
    i := !i + 8
  done;
  while !i < stop do
    c :=
      Array.unsafe_get t ((!c lxor Char.code (String.unsafe_get s !i)) land 0xff)
      lxor (!c lsr 8);
    incr i
  done;
  !c lxor 0xffffffff

(* ------------------------------------------------------------- frames *)

(* Wire frames and segment frames both start [length (u32 LE) | crc32
   (u32 LE)] of the payload after a [header]-byte slot: the frame is built
   in one writer and the slot patched in place once the payload is in, and
   read back through one [frame_reader] that reuses its payload buffer. *)
let begin_frame w ~header =
  if header < 8 then invalid_arg "Bincodec.begin_frame: header";
  w.len <- 0;
  ensure w header;
  Bytes.fill w.buf 0 header '\000';
  w.len <- header

let seal_frame w ~header =
  if header < 8 || header > w.len then invalid_arg "Bincodec.seal_frame: header";
  let n = w.len - header in
  set_u32 w 0 n;
  set_u32 w 4 (crc32 ~pos:header ~len:n (Bytes.unsafe_to_string w.buf))

exception Closed
exception Timeout

type frame_reader = {
  f_head : Bytes.t;
  mutable f_buf : Bytes.t;
  f_cur : cursor;
  mutable f_size : int;
}

let frame_reader ~header =
  if header < 8 then invalid_arg "Bincodec.frame_reader: header";
  { f_head = Bytes.create header; f_buf = Bytes.empty; f_cur = cursor ""; f_size = 0 }

let header_word r i = Int32.to_int (Bytes.get_int32_le r.f_head (4 * i)) land 0xffffffff
let frame_size r = r.f_size

let really_read fd buf n =
  let pos = ref 0 in
  (try
     while !pos < n do
       match Unix.read fd buf !pos (n - !pos) with
       | 0 -> raise Exit
       | k -> pos := !pos + k
       | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
       | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
         raise Timeout
     done
   with Exit -> ());
  !pos

(* EOF before any header byte is a clean [Closed]; EOF anywhere later is a
   torn frame.  The length is checked against [max_bytes] before the
   buffer grows, and the CRC before anything decodes.  The cursor's slice
   ends at the current payload, so bytes a longer earlier frame left in
   [f_buf] are unreachable. *)
let read_frame r ~max_bytes fd =
  let header = Bytes.length r.f_head in
  match really_read fd r.f_head header with
  | 0 -> raise Closed
  | got when got < header -> corrupt "torn frame header (%d of %d bytes)" got header
  | _ ->
    let len = header_word r 0 in
    if len > max_bytes then corrupt "frame of %d bytes exceeds the %d limit" len max_bytes;
    if len > Bytes.length r.f_buf then
      r.f_buf <- Bytes.create (max len (min max_bytes (2 * Bytes.length r.f_buf)));
    if really_read fd r.f_buf len < len then corrupt "torn frame payload (wanted %d bytes)" len;
    let payload = Bytes.unsafe_to_string r.f_buf in
    if crc32 ~len payload <> header_word r 1 then corrupt "frame checksum mismatch";
    r.f_size <- header + len;
    retarget r.f_cur ~len payload;
    r.f_cur

(* ------------------------------------------------------------- levels *)

let level_code = function `None -> 0 | `Io -> 1 | `View -> 2 | `Full -> 3

let level_of_code = function
  | 0 -> `None
  | 1 -> `Io
  | 2 -> `View
  | 3 -> `Full
  | c -> corrupt "unknown log level code %d" c
