open Vyrd
module Bincodec = Vyrd_pipeline.Bincodec

let version = 1
let max_frame_bytes = 1 lsl 24

let corrupt fmt = Printf.ksprintf (fun m -> raise (Bincodec.Corrupt m)) fmt

(* ------------------------------------------------------------ messages *)

type hello = { h_version : int; h_level : Log.level; h_producer : string }

type client_msg =
  | Hello of hello
  | Batch of Event.t array
  | Heartbeat
  | Finish
  | Resume_session of string
  | Checkpoint_request
  | Drain
  | Status_request
  | Register of string

type verdict = {
  v_report : Report.t;
  v_fail_index : int option;
  v_events : int;
  v_spilled : string option;
}

let spilled_verdict ~events path =
  let stats =
    { Report.events_processed = events; methods_checked = 0; commits_resolved = 0;
      per_method = []; queue_high_water = 0 }
  in
  { v_report = { Report.outcome = Report.Pass; stats }; v_fail_index = None;
    v_events = events; v_spilled = Some path }

type status = {
  st_draining : bool;
  st_active : int;
  st_checking : int;
  st_metrics : string;
}

type server_msg =
  | Hello_ack of { a_version : int; a_session : int; a_credit : int; a_spilling : bool }
  | Credit of int
  | Heartbeat_ack
  | Verdict of verdict
  | Error of string
  | Resume_ack of { ra_events : int; ra_resumed_at : int option; ra_replayed : int }
  | Checkpoint_state of { cs_events : int; cs_state : Vyrd.Repr.t option }
  | Status of status

(* ------------------------------------------------------ report codec *)

let put_char = Bincodec.put_char
let read_byte = Bincodec.read_byte

let put_option put w = function
  | None -> put_char w '\000'
  | Some v ->
    put_char w '\001';
    put w v

let read_option read c =
  match read_byte c "option" with
  | '\000' -> None
  | '\001' -> Some (read c)
  | t -> corrupt "unknown option tag 0x%02x" (Char.code t)

let put_exec w (e : Report.exec) =
  Bincodec.put_uvarint w e.Report.e_tid;
  Bincodec.put_string w e.Report.e_mid;
  Bincodec.put_uvarint w (List.length e.Report.e_args);
  List.iter (Bincodec.put_repr w) e.Report.e_args;
  put_option Bincodec.put_repr w e.Report.e_ret

(* A count from the peer sizes nothing before it is bounded by the bytes
   left: every item takes at least one. *)
let read_count c what =
  let n = Bincodec.read_uvarint c in
  if n < 0 || n > Bincodec.remaining c then
    corrupt "%s of %d items in %d bytes" what n (Bincodec.remaining c);
  n

let read_list read c = List.init (read_count c "list") (fun _ -> read c)

let read_exec c =
  let e_tid = Bincodec.read_uvarint c in
  let e_mid = Bincodec.read_string c in
  let e_args = read_list Bincodec.read_repr c in
  let e_ret = read_option Bincodec.read_repr c in
  { Report.e_tid; e_mid; e_args; e_ret }

let put_violation w (v : Report.violation) =
  match v with
  | Report.Io_violation { exec; commit_ordinal; reason } ->
    put_char w '\000';
    put_exec w exec;
    Bincodec.put_uvarint w commit_ordinal;
    Bincodec.put_string w reason
  | Report.Observer_violation { exec; window = lo, hi } ->
    put_char w '\001';
    put_exec w exec;
    Bincodec.put_varint w lo;
    Bincodec.put_varint w hi
  | Report.View_violation { exec; commit_ordinal; view_i; view_s } ->
    put_char w '\002';
    put_exec w exec;
    Bincodec.put_uvarint w commit_ordinal;
    Bincodec.put_repr w view_i;
    Bincodec.put_repr w view_s
  | Report.Invariant_violation { exec; commit_ordinal; invariant } ->
    put_char w '\003';
    put_exec w exec;
    Bincodec.put_uvarint w commit_ordinal;
    Bincodec.put_string w invariant
  | Report.Ill_formed { event; reason } ->
    put_char w '\004';
    put_option Bincodec.put_event w event;
    Bincodec.put_string w reason

let read_violation c =
  match read_byte c "violation" with
  | '\000' ->
    let exec = read_exec c in
    let commit_ordinal = Bincodec.read_uvarint c in
    let reason = Bincodec.read_string c in
    Report.Io_violation { exec; commit_ordinal; reason }
  | '\001' ->
    let exec = read_exec c in
    let lo = Bincodec.read_varint c in
    let hi = Bincodec.read_varint c in
    Report.Observer_violation { exec; window = (lo, hi) }
  | '\002' ->
    let exec = read_exec c in
    let commit_ordinal = Bincodec.read_uvarint c in
    let view_i = Bincodec.read_repr c in
    let view_s = Bincodec.read_repr c in
    Report.View_violation { exec; commit_ordinal; view_i; view_s }
  | '\003' ->
    let exec = read_exec c in
    let commit_ordinal = Bincodec.read_uvarint c in
    let invariant = Bincodec.read_string c in
    Report.Invariant_violation { exec; commit_ordinal; invariant }
  | '\004' ->
    let event = read_option Bincodec.read_event c in
    let reason = Bincodec.read_string c in
    Report.Ill_formed { event; reason }
  | t -> corrupt "unknown violation tag 0x%02x" (Char.code t)

let put_report w (r : Report.t) =
  (match r.Report.outcome with
  | Report.Pass -> put_char w '\000'
  | Report.Fail v ->
    put_char w '\001';
    put_violation w v);
  let s = r.Report.stats in
  Bincodec.put_uvarint w s.Report.events_processed;
  Bincodec.put_uvarint w s.Report.methods_checked;
  Bincodec.put_uvarint w s.Report.commits_resolved;
  Bincodec.put_uvarint w (List.length s.Report.per_method);
  List.iter
    (fun (mid, n) ->
      Bincodec.put_string w mid;
      Bincodec.put_uvarint w n)
    s.Report.per_method;
  Bincodec.put_uvarint w s.Report.queue_high_water

let read_report c =
  let outcome =
    match read_byte c "report" with
    | '\000' -> Report.Pass
    | '\001' -> Report.Fail (read_violation c)
    | t -> corrupt "unknown outcome tag 0x%02x" (Char.code t)
  in
  let events_processed = Bincodec.read_uvarint c in
  let methods_checked = Bincodec.read_uvarint c in
  let commits_resolved = Bincodec.read_uvarint c in
  let per_method =
    read_list
      (fun c ->
        let mid = Bincodec.read_string c in
        (mid, Bincodec.read_uvarint c))
      c
  in
  let queue_high_water = Bincodec.read_uvarint c in
  {
    Report.outcome;
    stats =
      { Report.events_processed; methods_checked; commits_resolved; per_method;
        queue_high_water };
  }

(* ------------------------------------------------------ message codec *)

let put_batch w evs ~pos ~len =
  put_char w '\001';
  Bincodec.put_uvarint w len;
  for i = pos to pos + len - 1 do
    Bincodec.put_event w (Array.unsafe_get evs i)
  done

let put_client w = function
  | Hello h ->
    put_char w '\000';
    Bincodec.put_uvarint w h.h_version;
    put_char w (Char.chr (Bincodec.level_code h.h_level));
    Bincodec.put_string w h.h_producer
  | Batch evs -> put_batch w evs ~pos:0 ~len:(Array.length evs)
  | Heartbeat -> put_char w '\002'
  | Finish -> put_char w '\003'
  | Resume_session path ->
    put_char w '\004';
    Bincodec.put_string w path
  | Checkpoint_request -> put_char w '\005'
  | Drain -> put_char w '\006'
  | Status_request -> put_char w '\007'
  | Register name ->
    put_char w '\008';
    Bincodec.put_string w name

let put_server w = function
  | Hello_ack { a_version; a_session; a_credit; a_spilling } ->
    put_char w '\000';
    Bincodec.put_uvarint w a_version;
    Bincodec.put_uvarint w a_session;
    Bincodec.put_uvarint w a_credit;
    put_char w (if a_spilling then '\001' else '\000')
  | Credit n ->
    put_char w '\001';
    Bincodec.put_uvarint w n
  | Heartbeat_ack -> put_char w '\002'
  | Verdict v ->
    put_char w '\003';
    put_report w v.v_report;
    put_option Bincodec.put_uvarint w v.v_fail_index;
    Bincodec.put_uvarint w v.v_events;
    put_option Bincodec.put_string w v.v_spilled
  | Error msg ->
    put_char w '\004';
    Bincodec.put_string w msg
  | Resume_ack { ra_events; ra_resumed_at; ra_replayed } ->
    put_char w '\005';
    Bincodec.put_uvarint w ra_events;
    put_option Bincodec.put_uvarint w ra_resumed_at;
    Bincodec.put_uvarint w ra_replayed
  | Checkpoint_state { cs_events; cs_state } ->
    put_char w '\006';
    Bincodec.put_uvarint w cs_events;
    put_option Bincodec.put_repr w cs_state
  | Status { st_draining; st_active; st_checking; st_metrics } ->
    put_char w '\007';
    put_char w (if st_draining then '\001' else '\000');
    Bincodec.put_uvarint w st_active;
    Bincodec.put_uvarint w st_checking;
    Bincodec.put_string w st_metrics

let encode put msg =
  let w = Bincodec.writer ~size:64 () in
  put w msg;
  Bincodec.contents w

let encode_client = encode put_client
let encode_server = encode put_server

(* Every client message except [Batch], whose events the caller decodes
   into storage of its choosing. *)
let read_client_msg c = function
  | '\000' ->
    let h_version = Bincodec.read_uvarint c in
    let h_level = Bincodec.level_of_code (Char.code (read_byte c "hello")) in
    let h_producer = Bincodec.read_string c in
    Hello { h_version; h_level; h_producer }
  | '\002' -> Heartbeat
  | '\003' -> Finish
  | '\004' -> Resume_session (Bincodec.read_string c)
  | '\005' -> Checkpoint_request
  | '\006' -> Drain
  | '\007' -> Status_request
  | '\008' -> Register (Bincodec.read_string c)
  | t -> corrupt "unknown client message tag 0x%02x" (Char.code t)

let read_server c =
  match read_byte c "message" with
  | '\000' ->
    let a_version = Bincodec.read_uvarint c in
    let a_session = Bincodec.read_uvarint c in
    let a_credit = Bincodec.read_uvarint c in
    let a_spilling = read_byte c "hello-ack" <> '\000' in
    Hello_ack { a_version; a_session; a_credit; a_spilling }
  | '\001' -> Credit (Bincodec.read_uvarint c)
  | '\002' -> Heartbeat_ack
  | '\003' ->
    let v_report = read_report c in
    let v_fail_index = read_option Bincodec.read_uvarint c in
    let v_events = Bincodec.read_uvarint c in
    let v_spilled = read_option Bincodec.read_string c in
    Verdict { v_report; v_fail_index; v_events; v_spilled }
  | '\004' -> Error (Bincodec.read_string c)
  | '\005' ->
    let ra_events = Bincodec.read_uvarint c in
    let ra_resumed_at = read_option Bincodec.read_uvarint c in
    let ra_replayed = Bincodec.read_uvarint c in
    Resume_ack { ra_events; ra_resumed_at; ra_replayed }
  | '\006' ->
    let cs_events = Bincodec.read_uvarint c in
    let cs_state = read_option Bincodec.read_repr c in
    Checkpoint_state { cs_events; cs_state }
  | '\007' ->
    let st_draining = read_byte c "status" <> '\000' in
    let st_active = Bincodec.read_uvarint c in
    let st_checking = Bincodec.read_uvarint c in
    let st_metrics = Bincodec.read_string c in
    Status { st_draining; st_active; st_checking; st_metrics }
  | t -> corrupt "unknown server message tag 0x%02x" (Char.code t)

(* A payload whose message ends before the payload does is as corrupt as a
   truncated one: trailing garbage means framing desynchronization. *)
let finish_decode what c v =
  if Bincodec.remaining c <> 0 then
    corrupt "%s message payload has %d trailing bytes" what (Bincodec.remaining c);
  v

let decode what read s =
  if s = "" then corrupt "empty message";
  let c = Bincodec.cursor s in
  finish_decode what c (read c)

let decode_client =
  decode "client" (fun c ->
      match read_byte c "message" with
      | '\001' ->
        let n = read_count c "batch" in
        Batch (Array.init n (fun _ -> Bincodec.read_event c))
      | t -> read_client_msg c t)

let decode_server = decode "server" read_server

(* -------------------------------------------------------------- frames *)

exception Closed = Bincodec.Closed
exception Timeout = Bincodec.Timeout

let frame_header_bytes = 8

let frame payload =
  let n = String.length payload in
  let b = Bytes.create (frame_header_bytes + n) in
  Bytes.set_int32_le b 0 (Int32.of_int (n land 0xffffffff));
  Bytes.set_int32_le b 4 (Int32.of_int (Bincodec.crc32 payload land 0xffffffff));
  Bytes.blit_string payload 0 b frame_header_bytes n;
  Bytes.unsafe_to_string b

(* [write] can send short on sockets; loop, restarting on EINTR. *)
let write_all fd b len =
  let pos = ref 0 in
  while !pos < len do
    match Unix.write fd b !pos (len - !pos) with
    | 0 -> raise Closed
    | n -> pos := !pos + n
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    (* only reachable when SO_SNDTIMEO is set (server side): a peer that
       stopped reading.  Fail the session like an idle read would. *)
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      raise Timeout
  done

(* Sending: the message is encoded into [w] behind a reserved header slot,
   the header is patched in place and the frame leaves in one write.  [w]
   is the caller's, so a connection reuses one buffer for every frame. *)
let send_with w fd put msg =
  Bincodec.begin_frame w ~header:frame_header_bytes;
  put w msg;
  Bincodec.seal_frame w ~header:frame_header_bytes;
  let n = Bincodec.length w in
  write_all fd (Bincodec.bytes w) n;
  n

let write_client w fd msg = send_with w fd put_client msg

let write_batch w fd evs ~pos ~len =
  if pos < 0 || len < 0 || pos > Array.length evs - len then
    invalid_arg "Wire.write_batch: slice out of bounds";
  send_with w fd (fun w evs -> put_batch w evs ~pos ~len) evs

let send_client fd msg = ignore (write_client (Bincodec.writer ~size:64 ()) fd msg)
let send_server fd msg = ignore (send_with (Bincodec.writer ~size:64 ()) fd put_server msg)

(* Receiving: one frame at a time through the frame reader the spool shares.
   Every decoded string is a copy, so nothing aliases the reader's buffer
   once a message is returned. *)
type reader = { r_frames : Bincodec.frame_reader; mutable r_events : Event.t array }

let reader () =
  { r_frames = Bincodec.frame_reader ~header:frame_header_bytes; r_events = [||] }

let frame_bytes r = Bincodec.frame_size r.r_frames

let read_frame ?(max_bytes = max_frame_bytes) fd =
  let c = Bincodec.read_frame (Bincodec.frame_reader ~header:frame_header_bytes) ~max_bytes fd in
  Bincodec.read_raw c (Bincodec.remaining c)

let recv_server ?max_bytes fd = decode_server (read_frame ?max_bytes fd)

type inbound = Events of Event.t array * int | Message of client_msg

let recv ?(max_bytes = max_frame_bytes) r fd =
  let c = Bincodec.read_frame r.r_frames ~max_bytes fd in
  if Bincodec.remaining c = 0 then corrupt "empty message";
  match read_byte c "message" with
  | '\001' ->
    let n = read_count c "batch" in
    for i = 0 to n - 1 do
      let ev = Bincodec.read_event c in
      if i = Array.length r.r_events then begin
        let grown = Array.make (max 16 (2 * i)) ev in
        Array.blit r.r_events 0 grown 0 i;
        r.r_events <- grown
      end;
      Array.unsafe_set r.r_events i ev
    done;
    finish_decode "client" c (Events (r.r_events, n))
  | t -> finish_decode "client" c (Message (read_client_msg c t))

(* ----------------------------------------------------------- addresses *)

type addr = Unix_socket of string | Tcp of string * int

let addr_of_string s =
  match String.rindex_opt s ':' with
  | Some i -> (
    match int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1)) with
    | Some port -> Tcp (String.sub s 0 i, port)
    | None -> Unix_socket s)
  | None -> Unix_socket s

let pp_addr ppf = function
  | Unix_socket path -> Fmt.pf ppf "unix:%s" path
  | Tcp (host, port) -> Fmt.pf ppf "%s:%d" host port

let sockaddr_of_addr = function
  | Unix_socket path -> Unix.ADDR_UNIX path
  | Tcp (host, port) ->
    let ip =
      try Unix.inet_addr_of_string host
      with Failure _ -> (Unix.gethostbyname host).Unix.h_addr_list.(0)
    in
    Unix.ADDR_INET (ip, port)
