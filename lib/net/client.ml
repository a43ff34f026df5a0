open Vyrd
module Bincodec = Vyrd_pipeline.Bincodec

exception Server_error of string

type t = {
  fd : Unix.file_descr;
  batch_events : int;
  buf : Event.t array;  (* partial batch, [count] filled *)
  mutable count : int;
  out : Bincodec.writer;  (* every outgoing frame is built here *)
  mutable credit : int;
  mutable sent : int;
  mutable bytes : int;
  mutable closed : bool;
  c_session : int;
  c_spilling : bool;
}

type outcome =
  | Checked of { report : Report.t; fail_index : int option }
  | Spilled of { path : string; events : int }

let transient = function
  | Unix.ECONNREFUSED | Unix.ENOENT | Unix.ETIMEDOUT | Unix.ECONNRESET
  | Unix.EAGAIN | Unix.EINTR ->
    true
  | _ -> false

(* Exponential backoff would reach multi-minute sleeps at soak-level retry
   counts, and jitterless delays make every client of a recovering server
   reconnect in lockstep.  Cap the exponential curve and spread each delay
   by ±25% from a seeded Prng (deterministic given the seed, unlike
   [Random] — reconnect schedules stay reproducible in tests and soaks). *)
let dial ?(max_backoff = 2.0) ?jitter_seed ~retries ~backoff addr =
  if max_backoff <= 0. then invalid_arg "Client.dial: max_backoff";
  let sockaddr = Wire.sockaddr_of_addr addr in
  let domain =
    match addr with
    | Wire.Unix_socket _ -> Unix.PF_UNIX
    | Wire.Tcp _ -> Unix.PF_INET
  in
  let prng =
    lazy
      (Vyrd_sched.Prng.create
         (match jitter_seed with Some s -> s | None -> Unix.getpid ()))
  in
  let delay i =
    let base = Float.min max_backoff (backoff *. (2. ** float_of_int i)) in
    let spread = float_of_int (Vyrd_sched.Prng.int (Lazy.force prng) 1001) /. 1000. in
    base *. (0.75 +. (0.5 *. spread))
  in
  let rec attempt i =
    let fd = Unix.socket ~cloexec:true domain Unix.SOCK_STREAM 0 in
    match Unix.connect fd sockaddr with
    | () -> fd
    | exception Unix.Unix_error (e, _, _) when transient e && i < retries ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Unix.sleepf (delay i);
      attempt (i + 1)
    | exception e ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      raise e
  in
  attempt 0

let connect ?(retries = 0) ?(backoff = 0.05) ?max_backoff ?jitter_seed
    ?(level = `View) ?(batch_events = 256) ?(producer = "vyrd-client") addr =
  if batch_events <= 0 then invalid_arg "Client.connect: batch_events";
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let fd = dial ?max_backoff ?jitter_seed ~retries ~backoff addr in
  match
    Wire.send_client fd
      (Wire.Hello { h_version = Wire.version; h_level = level; h_producer = producer });
    Wire.recv_server fd
  with
  | exception e ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    raise e
  | Wire.Error msg ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    raise (Server_error msg)
  | Wire.Hello_ack { a_version; a_session; a_credit; a_spilling } ->
    if a_version <> Wire.version then begin
      (try Unix.close fd with Unix.Unix_error _ -> ());
      raise (Server_error (Printf.sprintf "server speaks protocol %d, not %d"
                             a_version Wire.version))
    end;
    if a_credit <= 0 then begin
      (try Unix.close fd with Unix.Unix_error _ -> ());
      raise (Server_error "server granted no credit")
    end;
    (* outstanding credit can never exceed the server window, so a batch
       larger than [a_credit] would make [flush] wait forever *)
    let batch_events = min batch_events a_credit in
    {
      fd;
      batch_events;
      buf = Array.make batch_events (Event.Commit { tid = 0 });
      count = 0;
      out = Bincodec.writer ~size:(64 + (16 * batch_events)) ();
      credit = a_credit;
      sent = 0;
      bytes = 0;
      closed = false;
      c_session = a_session;
      c_spilling = a_spilling;
    }
  | _ ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    raise (Server_error "protocol error: expected hello-ack")

let session t = t.c_session
let spilling t = t.c_spilling
let events_sent t = t.sent
let bytes_sent t = t.bytes

let fail t msg =
  t.closed <- true;
  (try Unix.close t.fd with Unix.Unix_error _ -> ());
  raise (Server_error msg)

(* Drain one server message while waiting for credit or the verdict. *)
let recv t =
  match Wire.recv_server t.fd with
  | msg -> msg
  | exception Wire.Closed -> fail t "server closed the connection"
  | exception Bincodec.Corrupt msg -> fail t ("corrupt server frame: " ^ msg)

let rec await_credit t need =
  if t.credit < need then
    match recv t with
    | Wire.Credit n ->
      t.credit <- t.credit + n;
      await_credit t need
    | Wire.Heartbeat_ack -> await_credit t need
    | Wire.Error msg -> fail t msg
    | Wire.Hello_ack _ | Wire.Verdict _ | Wire.Resume_ack _
    | Wire.Checkpoint_state _ | Wire.Status _ ->
      fail t "protocol error: unexpected server message while streaming"

let write t send =
  match send t.out t.fd with
  | n -> t.bytes <- t.bytes + n
  | exception Unix.Unix_error (e, _, _) -> fail t (Unix.error_message e)

let write_msg t msg = write t (fun w fd -> Wire.write_client w fd msg)

(* One batch frame of [evs.(pos .. pos + len - 1)], once credit covers it. *)
let write_events t evs ~pos ~len =
  await_credit t len;
  write t (fun w fd -> Wire.write_batch w fd evs ~pos ~len);
  t.credit <- t.credit - len;
  t.sent <- t.sent + len

let flush t =
  if t.closed then raise (Server_error "session is closed");
  if t.count > 0 then begin
    let n = t.count in
    t.count <- 0;
    write_events t t.buf ~pos:0 ~len:n
  end

let send t ev =
  if t.closed then raise (Server_error "session is closed");
  t.buf.(t.count) <- ev;
  t.count <- t.count + 1;
  if t.count >= t.batch_events then flush t

(* Forward a whole pre-assembled batch — the coordinator's relay path.
   Chunked at [batch_events] (clamped to the server's window at connect), so
   credit can always cover a chunk. *)
let send_batch ?len t evs =
  let n = match len with Some n -> n | None -> Array.length evs in
  if n < 0 || n > Array.length evs then invalid_arg "Client.send_batch: len";
  flush t;
  let pos = ref 0 in
  while !pos < n do
    let k = min t.batch_events (n - !pos) in
    write_events t evs ~pos:!pos ~len:k;
    pos := !pos + k
  done

let heartbeat t =
  if t.closed then raise (Server_error "session is closed");
  write_msg t Wire.Heartbeat

let set_timeout t secs =
  Unix.setsockopt_float t.fd Unix.SO_RCVTIMEO secs;
  Unix.setsockopt_float t.fd Unix.SO_SNDTIMEO secs

let resume_session t ~path =
  if t.closed then raise (Server_error "session is closed");
  if t.sent > 0 || t.count > 0 then
    invalid_arg "Client.resume_session: events already sent";
  write_msg t (Wire.Resume_session path);
  let rec await () =
    match recv t with
    | Wire.Resume_ack { ra_events; ra_resumed_at; ra_replayed } ->
      (ra_events, ra_resumed_at, ra_replayed)
    | Wire.Credit n ->
      t.credit <- t.credit + n;
      await ()
    | Wire.Heartbeat_ack -> await ()
    | Wire.Error msg -> fail t msg
    | _ -> fail t "protocol error: expected resume-ack"
  in
  await ()

let request_checkpoint t =
  if t.closed then raise (Server_error "session is closed");
  flush t;
  write_msg t Wire.Checkpoint_request;
  let rec await () =
    match recv t with
    | Wire.Checkpoint_state { cs_events; cs_state } -> (cs_events, cs_state)
    | Wire.Credit n ->
      t.credit <- t.credit + n;
      await ()
    | Wire.Heartbeat_ack -> await ()
    | Wire.Error msg -> fail t msg
    | _ -> fail t "protocol error: expected checkpoint-state"
  in
  await ()

let attach t log = Log.subscribe log (send t)

let close t =
  if not t.closed then begin
    t.closed <- true;
    try Unix.close t.fd with Unix.Unix_error _ -> ()
  end

let finish t =
  flush t;
  write_msg t Wire.Finish;
  let rec await () =
    match recv t with
    | Wire.Verdict v ->
      close t;
      (match v.Wire.v_spilled with
      | Some path -> Spilled { path; events = v.Wire.v_events }
      | None ->
        Checked { report = v.Wire.v_report; fail_index = v.Wire.v_fail_index })
    | Wire.Credit _ | Wire.Heartbeat_ack -> await ()
    | Wire.Error msg -> fail t msg
    | Wire.Hello_ack _ | Wire.Resume_ack _ | Wire.Checkpoint_state _
    | Wire.Status _ ->
      fail t "protocol error: expected verdict"
  in
  await ()

let submit_log ?retries ?backoff ?max_backoff ?jitter_seed ?batch_events ?producer
    addr log =
  let t =
    connect ?retries ?backoff ?max_backoff ?jitter_seed ~level:(Log.level log)
      ?batch_events ?producer addr
  in
  Fun.protect
    ~finally:(fun () -> close t)
    (fun () ->
      Log.iter (send t) log;
      finish t)
