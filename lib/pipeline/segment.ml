open Vyrd

let magic = "VYRDB1"

let level_code = function `None -> 0 | `Io -> 1 | `View -> 2 | `Full -> 3

let level_of_code = function
  | 0 -> Some `None
  | 1 -> Some `Io
  | 2 -> Some `View
  | 3 -> Some `Full
  | _ -> None

let frame_header_bytes = 12
let file_header_bytes = String.length magic + 1

(* Checkpoint frames reuse the event framing but set bit 31 of the count
   word (an event segment never holds 2^31 events).  Readers that predate
   checkpoints treat such a frame like any other: its CRC still guards the
   clean-prefix recovery; readers from this version on skip the payload
   unless asked to collect it. *)
let checkpoint_flag = 0x80000000

(* --------------------------------------------------------------- writer *)

type writer = {
  w_segment_bytes : int;
  w_rotate : int option;
  w_level : Log.level;
  w_path : string;
  w_buf : Bincodec.writer;  (* the open segment, header slot first *)
  mutable w_buf_events : int;
  mutable w_oc : out_channel option;
  mutable w_file_index : int;
  mutable w_file_bytes : int;
  mutable w_files : string list;  (* reverse stream order *)
  mutable w_bytes : int;
  mutable w_segments : int;
  mutable w_events : int;
  mutable w_checkpoints : int;
  mutable w_closed : bool;
}

(* Each frame is built in one writer behind its header slot and goes out
   with one write, no copy. *)
let start_frame b = Bincodec.begin_frame b ~header:frame_header_bytes

let new_frame ?size () =
  let b = Bincodec.writer ?size () in
  start_frame b;
  b

let payload_bytes b = Bincodec.length b - frame_header_bytes

let seal_frame b count =
  Bincodec.seal_frame b ~header:frame_header_bytes;
  Bincodec.set_u32 b 8 count

let output_frame oc b = output oc (Bincodec.bytes b) 0 (Bincodec.length b)

let create_writer ?(segment_bytes = 65536) ?rotate_bytes ~level path =
  if segment_bytes <= 0 then invalid_arg "Segment.create_writer: segment_bytes";
  (match rotate_bytes with
  | Some n when n <= 0 -> invalid_arg "Segment.create_writer: rotate_bytes"
  | _ -> ());
  {
    w_segment_bytes = segment_bytes;
    w_rotate = rotate_bytes;
    w_level = level;
    w_path = path;
    w_buf = new_frame ~size:(frame_header_bytes + segment_bytes + 256) ();
    w_buf_events = 0;
    w_oc = None;
    w_file_index = 0;
    w_file_bytes = 0;
    w_files = [];
    w_bytes = 0;
    w_segments = 0;
    w_events = 0;
    w_checkpoints = 0;
    w_closed = false;
  }

let current_path w =
  match w.w_rotate with
  | None -> w.w_path
  | Some _ -> Printf.sprintf "%s.%05d" w.w_path w.w_file_index

let ensure_open w =
  match w.w_oc with
  | Some oc -> oc
  | None ->
    let path = current_path w in
    let oc = open_out_bin path in
    output_string oc magic;
    output_char oc (Char.chr (level_code w.w_level));
    w.w_oc <- Some oc;
    w.w_file_bytes <- file_header_bytes;
    w.w_bytes <- w.w_bytes + file_header_bytes;
    w.w_files <- path :: w.w_files;
    oc

let close_current_file w =
  match w.w_oc with
  | None -> ()
  | Some oc ->
    close_out oc;
    w.w_oc <- None;
    w.w_file_index <- w.w_file_index + 1

let write_frame w b count =
  seal_frame b count;
  let oc = ensure_open w in
  output_frame oc b;
  flush oc;
  let n = Bincodec.length b in
  w.w_file_bytes <- w.w_file_bytes + n;
  w.w_bytes <- w.w_bytes + n;
  match w.w_rotate with
  | Some limit when w.w_file_bytes >= limit -> close_current_file w
  | _ -> ()

let seal w =
  if w.w_buf_events > 0 then begin
    let count = w.w_buf_events in
    w.w_buf_events <- 0;
    w.w_segments <- w.w_segments + 1;
    (* the buffer restarts even when the write fails *)
    Fun.protect ~finally:(fun () -> start_frame w.w_buf) (fun () ->
        write_frame w w.w_buf count)
  end

let checkpoint_frame ~events state =
  let b = new_frame () in
  Bincodec.put_uvarint b events;
  Bincodec.put_repr b state;
  b

let append_checkpoint w state =
  if w.w_closed then invalid_arg "Segment.append_checkpoint: writer is closed";
  (* seal first: the frame's event index covers everything appended so far *)
  seal w;
  w.w_checkpoints <- w.w_checkpoints + 1;
  write_frame w (checkpoint_frame ~events:w.w_events state) checkpoint_flag

let append w ev =
  if w.w_closed then invalid_arg "Segment.append: writer is closed";
  Bincodec.put_event w.w_buf ev;
  w.w_buf_events <- w.w_buf_events + 1;
  w.w_events <- w.w_events + 1;
  if payload_bytes w.w_buf >= w.w_segment_bytes then seal w

let flush w =
  if not w.w_closed then seal w

let close w =
  if not w.w_closed then begin
    w.w_closed <- true;
    (* the channel must not outlive the writer even when the final seal
       fails (disk full, quota) *)
    Fun.protect
      ~finally:(fun () -> close_current_file w)
      (fun () ->
        (* even an event-free stream leaves a (headered) file behind *)
        if w.w_files = [] then ignore (ensure_open w);
        seal w)
  end

let attach w log = Log.subscribe log (append w)
let writer_files w = List.rev w.w_files
let writer_bytes w = w.w_bytes
let writer_segments w = w.w_segments
let writer_events w = w.w_events
let writer_checkpoints w = w.w_checkpoints

let write_file ?segment_bytes path log =
  let w = create_writer ?segment_bytes ~level:(Log.level log) path in
  Fun.protect
    ~finally:(fun () -> close w)
    (fun () -> Log.iter (append w) log)

(* --------------------------------------------------------------- reader *)

type recovered = {
  log : Log.t;
  segments : int;
  bytes : int;
  truncated : bool;
  files : string list;
}

let is_binary path =
  match open_in_bin path with
  | exception Sys_error _ -> false
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        match really_input_string ic (String.length magic) with
        | s -> String.equal s magic
        | exception End_of_file -> false)

let get_u32 s off =
  Int32.to_int (String.get_int32_le s off) land 0xffffffff

(* Decode one CRC-validated payload into the log.  The payload passed its
   checksum, so a decode failure here means an encoder bug, not a torn
   write: raise rather than silently truncate. *)
let decode_payload log payload count =
  let n = ref (Bincodec.iter_events payload (Log.append log)) in
  if !n <> count then
    raise
      (Bincodec.Corrupt
         (Printf.sprintf "segment declared %d events but contained %d" count !n))

let decode_checkpoint payload =
  let c = Bincodec.cursor payload in
  let events = Bincodec.read_uvarint c in
  let state = Bincodec.read_repr c in
  if Bincodec.remaining c <> 0 then
    raise (Bincodec.Corrupt "checkpoint frame has trailing bytes");
  (events, state)

(* Read every whole, CRC-valid segment of [ic]; [false] when a torn payload
   or a checksum mismatch ended the stream (a torn 12-byte frame header
   shows up as a clean [End_of_file] here and is caught by the caller's
   consumed-bytes-vs-file-size comparison).  Checkpoint frames never reach
   the event log: they are handed to [on_checkpoint] when they decode, and
   skipped otherwise (a CRC-valid but undecodable checkpoint is version
   skew, not a torn tail — losing it costs replay work, never events). *)
let read_segments ?(on_checkpoint = fun _ _ -> ()) log ic acc_segments acc_bytes =
  let clean = ref true in
  let stop = ref false in
  while not !stop do
    match really_input_string ic frame_header_bytes with
    | exception End_of_file -> stop := true
    | head ->
      let len = get_u32 head 0 in
      let crc = get_u32 head 4 in
      let count = get_u32 head 8 in
      (match really_input_string ic len with
      | exception End_of_file ->
        clean := false;
        stop := true
      | payload ->
        if Bincodec.crc32 payload <> crc then begin
          clean := false;
          stop := true
        end
        else begin
          if count land checkpoint_flag <> 0 then (
            match decode_checkpoint payload with
            | events, state -> on_checkpoint events state
            | exception Bincodec.Corrupt _ -> ())
          else begin
            decode_payload log payload count;
            incr acc_segments
          end;
          acc_bytes := !acc_bytes + frame_header_bytes + len
        end)
  done;
  !clean

let read_header ic =
  match really_input_string ic file_header_bytes with
  | exception End_of_file -> Error `Torn_header
  | s ->
    if not (String.equal (String.sub s 0 (String.length magic)) magic) then
      Error `Bad_magic
    else (
      match level_of_code (Char.code s.[String.length magic]) with
      | Some lvl -> Ok lvl
      | None -> Error `Bad_magic)

let read_files_collecting ?on_checkpoint paths =
  let log = ref None in
  let segments = ref 0 in
  let bytes = ref 0 in
  let truncated = ref false in
  let read_one path =
    let size = (Unix.stat path).Unix.st_size in
    let before = !bytes in
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        match read_header ic with
        | Error `Bad_magic when !log = None ->
          raise (Bincodec.Corrupt (path ^ ": not a vyrd binary segment file"))
        | Error (`Bad_magic | `Torn_header) ->
          (* a crash can truncate even the header of the last rotated file *)
          truncated := true
        | Ok lvl ->
          let l =
            match !log with
            | Some l -> l
            | None ->
              let l = Log.create ~level:lvl () in
              log := Some l;
              l
          in
          bytes := !bytes + file_header_bytes;
          let on_checkpoint =
            Option.map (fun f events state -> f l events state) on_checkpoint
          in
          if not (read_segments ?on_checkpoint l ic segments bytes) then
            truncated := true;
          (* bytes we validated falling short of the file size means the
             tail was torn inside a frame header *)
          if !bytes - before < size then truncated := true)
  in
  List.iter (fun path -> if not !truncated then read_one path) paths;
  let log = match !log with Some l -> l | None -> Log.create ~level:`Full () in
  {
    log;
    segments = !segments;
    bytes = !bytes;
    truncated = !truncated;
    files = paths;
  }

let read_files paths = read_files_collecting paths
let read_file path = read_files [ path ]

(* [path] itself when it exists, otherwise the sorted rotation set. *)
let resolve_prefix path =
  if Sys.file_exists path then [ path ]
  else begin
    let dir = Filename.dirname path in
    let base = Filename.basename path ^ "." in
    let entries =
      Sys.readdir dir |> Array.to_list
      |> List.filter (fun f -> String.starts_with ~prefix:base f)
      |> List.sort compare
      |> List.map (Filename.concat dir)
    in
    if entries = [] then
      raise (Bincodec.Corrupt (path ^ ": no such segment file or rotation set"));
    entries
  end

let read_prefix path = read_files (resolve_prefix path)

(* ---------------------------------------------------------- checkpoints *)

type checkpoint = { ck_events : int; ck_state : Vyrd.Repr.t }

type resumable = { r_recovered : recovered; r_checkpoints : checkpoint list }

let read_from_checkpoint path =
  let cks = ref [] in
  let on_checkpoint log events state =
    (* a checkpoint cannot cover more events than precede it in the
       stream; anything else is a forged or misplaced frame — drop it *)
    if events >= 0 && events <= Log.length log then
      cks := { ck_events = events; ck_state = state } :: !cks
  in
  let r = read_files_collecting ~on_checkpoint (resolve_prefix path) in
  { r_recovered = r; r_checkpoints = List.rev !cks }

let latest_checkpoint ?at resumable =
  let limit =
    match at with Some n -> n | None -> Log.length resumable.r_recovered.log
  in
  List.fold_left
    (fun acc ck -> if ck.ck_events <= limit then Some ck else acc)
    None resumable.r_checkpoints

let append_checkpoint_file path ~events state =
  let target =
    match List.rev (resolve_prefix path) with
    | last :: _ -> last
    | [] -> raise (Bincodec.Corrupt (path ^ ": no such segment file or rotation set"))
  in
  let oc = open_out_gen [ Open_wronly; Open_append; Open_binary ] 0o644 target in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      let b = checkpoint_frame ~events state in
      seal_frame b checkpoint_flag;
      output_frame oc b)
