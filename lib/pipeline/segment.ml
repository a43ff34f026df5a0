open Vyrd

let magic = "VYRDB1"

let frame_header_bytes = 12
let file_header_bytes = String.length magic + 1

(* Checkpoint frames reuse the event framing with a count word of exactly
   2^31 (an event segment never holds 2^31 events).  The CRC does not cover
   the count word, so a reader takes no other value for a checkpoint: any
   other count must match the events its payload holds. *)
let checkpoint_count = 0x80000000

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
    output_char oc (Char.chr (Bincodec.level_code w.w_level));
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
  write_frame w (checkpoint_frame ~events:w.w_events state) checkpoint_count

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

type checkpoint = { ck_events : int; ck_state : Repr.t }

type recovered = {
  log : Log.t;
  segments : int;
  bytes : int;
  truncated : bool;
  files : string list;
  checkpoints : checkpoint list;
}

(* [path] itself when it exists, otherwise the sorted rotation set. *)
let resolve path =
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

(* I/O errors surface as [Sys_error], as from the channel functions. *)
let with_fd path f =
  try
    let fd = Unix.openfile path [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
    Fun.protect ~finally:(fun () -> Unix.close fd) (fun () -> f fd)
  with Unix.Unix_error (e, _, _) -> raise (Sys_error (path ^ ": " ^ Unix.error_message e))

(* Up to [n] first bytes of [fd]. *)
let read_head fd n =
  let b = Bytes.create n in
  Bytes.sub_string b 0 (Bincodec.really_read fd b n)

let is_binary path =
  match with_fd (List.hd (resolve path)) (fun fd -> read_head fd (String.length magic)) with
  | head -> String.equal head magic
  | exception (Bincodec.Corrupt _ | Sys_error _) -> false

let read_file_header fd =
  let s = read_head fd file_header_bytes in
  if String.length s < file_header_bytes then Error `Torn_header
  else if not (String.starts_with ~prefix:magic s) then Error `Bad_magic
  else
    match Bincodec.level_of_code (Char.code s.[String.length magic]) with
    | lvl -> Ok lvl
    | exception Bincodec.Corrupt _ -> Error `Bad_magic

(* The payload passed its checksum, so a count that does not match it is a
   damaged count word or an encoder bug, not a torn write: raise rather
   than silently truncate. *)
let decode_events log c count =
  let n = Bincodec.iter_events c (Log.append log) in
  if n <> count then
    raise
      (Bincodec.Corrupt
         (Printf.sprintf "segment declared %d events but contained %d" count n))

let decode_checkpoint c =
  let events = Bincodec.read_uvarint c in
  let state = Bincodec.read_repr c in
  if Bincodec.remaining c <> 0 then
    raise (Bincodec.Corrupt "checkpoint frame has trailing bytes");
  (events, state)

(* Every frame is read through [Bincodec.read_frame], bounded by the bytes
   left in its file: a torn or CRC-invalid frame ends the stream there
   ([truncated]).  Checkpoint frames never reach the event log: a valid one
   is collected, an undecodable one is skipped (a CRC-valid but
   undecodable checkpoint is version skew, not a torn tail — losing it
   costs replay work, never events), and one claiming to cover more events
   than precede it is dropped as forged or misplaced. *)
let read path =
  let files = resolve path in
  let frames = Bincodec.frame_reader ~header:frame_header_bytes in
  let log = ref None in
  let segments = ref 0 in
  let bytes = ref 0 in
  let truncated = ref false in
  let checkpoints = ref [] in
  let read_one file fd =
    let size = (Unix.fstat fd).Unix.st_size in
    match read_file_header fd with
    | Error `Bad_magic when !log = None ->
      raise (Bincodec.Corrupt (file ^ ": not a vyrd binary segment file"))
    | Error (`Bad_magic | `Torn_header) ->
      (* a crash can truncate even the header of the last rotated file *)
      truncated := true
    | Ok level ->
      let l =
        match !log with
        | Some l -> l
        | None ->
          let l = Log.create ~level () in
          log := Some l;
          l
      in
      let pos = ref file_header_bytes in
      let rec next () =
        match Bincodec.read_frame frames ~max_bytes:(size - !pos - frame_header_bytes) fd with
        | exception Bincodec.Closed -> ()
        | exception Bincodec.Corrupt _ -> truncated := true
        | c ->
          let count = Bincodec.header_word frames 2 in
          if count <> checkpoint_count then begin
            decode_events l c count;
            incr segments
          end
          else (
            match decode_checkpoint c with
            | events, state when events >= 0 && events <= Log.length l ->
              checkpoints := { ck_events = events; ck_state = state } :: !checkpoints
            | _ | (exception Bincodec.Corrupt _) -> ());
          pos := !pos + Bincodec.frame_size frames;
          next ()
      in
      next ();
      bytes := !bytes + !pos
  in
  List.iter (fun file -> if not !truncated then with_fd file (read_one file)) files;
  {
    log = (match !log with Some l -> l | None -> Log.create ~level:`Full ());
    segments = !segments;
    bytes = !bytes;
    truncated = !truncated;
    files;
    checkpoints = List.rev !checkpoints;
  }

let append_checkpoint_file path ~events state =
  let target = List.hd (List.rev (resolve path)) in
  let oc = open_out_gen [ Open_wronly; Open_append; Open_binary ] 0o644 target in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      let b = checkpoint_frame ~events state in
      seal_frame b checkpoint_count;
      output_frame oc b)
