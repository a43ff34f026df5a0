module Metrics = Vyrd_pipeline.Metrics
module Bincodec = Vyrd_pipeline.Bincodec

type session = { id : int; fd : Unix.file_descr; mutable control : bool }

type sink = {
  spilling : bool;
  batch : Vyrd.Event.t array -> int -> unit;
  heartbeat : unit -> unit;
  checkpoint : unit -> Vyrd.Repr.t option;
  resume : (string -> int * int option * int) option;
  finish : events:int -> Wire.verdict;
  close : unit -> unit -> unit;
}

type handlers = {
  data : session -> Wire.hello -> sink;
  status : unit -> Wire.status;
  control : Wire.client_msg -> bool;
}

type t = {
  listen_fd : Unix.file_descr;
  bound : Wire.addr;
  idle_timeout : float;
  window : int;
  lock : Mutex.t;
  live : (int, session) Hashtbl.t;
  threads : (int, Thread.t) Hashtbl.t;
  mutable accept_thread : Thread.t option;
  mutable next_session : int;
  mutable accepted : int;
  mutable stopping : bool;
  mutable forcing : bool;
  m_sessions : Metrics.counter;
  m_failed : Metrics.counter;
  m_accept_errors : Metrics.counter;
  m_peak : Metrics.gauge;
  m_events : Metrics.counter;
  m_batches : Metrics.counter;
  m_bytes : Metrics.counter;
  m_credits : Metrics.counter;
  m_heartbeats : Metrics.counter;
  m_verdicts : Metrics.counter;
  m_batch_events : Metrics.histogram;
}

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

let addr t = t.bound
let sessions t = with_lock t (fun () -> t.accepted)
let stopping t = with_lock t (fun () -> t.stopping)
let forcing t = with_lock t (fun () -> t.forcing)

let active t =
  with_lock t (fun () ->
      Hashtbl.fold (fun _ (s : session) n -> if s.control then n else n + 1) t.live 0)

(* A control connection lives as long as its peer polls it: no idle
   timeout, no place in [active]. *)
let control_loop t h (s : session) r first =
  with_lock t (fun () -> s.control <- true);
  Unix.setsockopt_float s.fd Unix.SO_RCVTIMEO 0.;
  Unix.setsockopt_float s.fd Unix.SO_SNDTIMEO 0.;
  let rec answer = function
    | Wire.Finish -> ()
    | Wire.Heartbeat ->
      Wire.send_server s.fd Wire.Heartbeat_ack;
      next ()
    | Wire.Status_request -> status ()
    | m when h.control m -> status ()
    | _ -> raise (Bincodec.Corrupt "unexpected message on a control connection")
  and status () =
    Wire.send_server s.fd (Wire.Status (h.status ()));
    next ()
  and next () =
    match Wire.recv r s.fd with
    | Wire.Message m -> answer m
    | Wire.Events _ -> raise (Bincodec.Corrupt "events on a control connection")
    | exception Wire.Closed -> ()
  in
  answer first

(* A data session, from the version-checked hello to the verdict.  Raises
   on any protocol failure; the caller contains it.  Returns the sink's
   post-close step. *)
let data_session t h s r hello =
  let sink = h.data s hello in
  let send m = Wire.send_server s.fd m in
  let after_close = ref ignore in
  Fun.protect ~finally:(fun () -> after_close := sink.close ()) (fun () ->
      send
        (Wire.Hello_ack
           { a_version = Wire.version; a_session = s.id; a_credit = t.window;
             a_spilling = sink.spilling });
      let events = ref 0 and ungranted = ref 0 in
      let grant_at = max 1 (t.window / 2) in
      let rec next () =
        let msg = Wire.recv r s.fd in
        Metrics.add t.m_bytes (Wire.frame_bytes r);
        match msg with
        | Wire.Events (evs, n) ->
          (* [evs.(0 .. n - 1)] live in the reader's array: the sink is done
             with them before the next [recv] overwrites it *)
          sink.batch evs n;
          events := !events + n;
          ungranted := !ungranted + n;
          Metrics.add t.m_events n;
          Metrics.incr t.m_batches;
          Metrics.observe t.m_batch_events n;
          if !ungranted >= grant_at then begin
            send (Wire.Credit !ungranted);
            Metrics.add t.m_credits !ungranted;
            ungranted := 0
          end;
          next ()
        | Wire.Message Wire.Finish ->
          let verdict = sink.finish ~events:!events in
          (* count before sending: once the client holds the verdict it may
             scrape [<family>.verdicts], and the increment must be visible *)
          Metrics.incr t.m_verdicts;
          send (Wire.Verdict verdict)
        | Wire.Message Wire.Heartbeat ->
          Metrics.incr t.m_heartbeats;
          sink.heartbeat ();
          send Wire.Heartbeat_ack;
          next ()
        | Wire.Message Wire.Checkpoint_request ->
          (* in-band barrier: by protocol order every batch before this
             request has reached the sink, so the state covers [events] *)
          let state = sink.checkpoint () in
          send (Wire.Checkpoint_state { cs_events = !events; cs_state = state });
          next ()
        | Wire.Message Wire.Status_request ->
          send (Wire.Status (h.status ()));
          next ()
        | Wire.Message (Wire.Resume_session path) ->
          (match sink.resume with
          | None -> raise (Bincodec.Corrupt "resume on a session that cannot resume")
          | Some _ when !events > 0 ->
            raise (Bincodec.Corrupt "resume after events were received")
          | Some resume ->
            let total, resumed_at, replayed = resume path in
            events := total;
            send
              (Wire.Resume_ack
                 { ra_events = total; ra_resumed_at = resumed_at;
                   ra_replayed = replayed }));
          next ()
        | Wire.Message (Wire.Hello _) ->
          raise (Bincodec.Corrupt "unexpected second hello")
        | Wire.Message _ -> raise (Bincodec.Corrupt "control message on a data session")
      in
      next ());
  !after_close

let serve_connection t h s =
  Unix.setsockopt_float s.fd Unix.SO_RCVTIMEO t.idle_timeout;
  (* a peer that stops *reading* must not pin this thread in a blocking
     write (Credit/Verdict) past the idle timeout either *)
  Unix.setsockopt_float s.fd Unix.SO_SNDTIMEO t.idle_timeout;
  let r = Wire.reader () in
  match Wire.recv r s.fd with
  | Wire.Message (Wire.Hello hello) ->
    if hello.Wire.h_version <> Wire.version then
      raise
        (Bincodec.Corrupt
           (Printf.sprintf "protocol version %d, expected %d" hello.Wire.h_version
              Wire.version));
    data_session t h s r hello
  | Wire.Message ((Wire.Status_request | Wire.Register _) as m) ->
    control_loop t h s r m;
    ignore
  | _ -> raise (Bincodec.Corrupt "expected hello")

let failure_message = function
  | Bincodec.Corrupt msg | Sys_error msg -> msg
  | Wire.Closed -> "connection closed mid-session"
  | Wire.Timeout -> "session idle timeout"
  | Unix.Unix_error (e, _, _) -> Unix.error_message e
  | e -> "unexpected exception: " ^ Printexc.to_string e

let connection_thread t h s =
  (* the fd close and the live/threads removal must run on *every* exit,
     else a failed session pins its daemon's resources forever — hence the
     catch-all *)
  let after_close =
    try serve_connection t h s
    with e ->
      Metrics.incr t.m_failed;
      (* best effort: the peer may already be gone *)
      (try Wire.send_server s.fd (Wire.Error (failure_message e))
       with Unix.Unix_error _ | Wire.Closed | Wire.Timeout -> ());
      ignore
  in
  close_quietly s.fd;
  Fun.protect after_close ~finally:(fun () ->
      with_lock t (fun () ->
          Hashtbl.remove t.live s.id;
          Hashtbl.remove t.threads s.id))

let accept_loop t h =
  let stop = ref false in
  while not !stop do
    match Unix.accept ~cloexec:true t.listen_fd with
    | fd, _ ->
      let s =
        with_lock t (fun () ->
            if t.stopping then None
            else begin
              let id = t.next_session in
              t.next_session <- id + 1;
              t.accepted <- t.accepted + 1;
              let s = { id; fd; control = false } in
              Hashtbl.replace t.live id s;
              Some s
            end)
      in
      (match s with
      | None -> close_quietly fd
      | Some s ->
        Metrics.incr t.m_sessions;
        let th = Thread.create (connection_thread t h) s in
        with_lock t (fun () ->
            Metrics.record t.m_peak (Hashtbl.length t.live);
            if Hashtbl.mem t.live s.id then Hashtbl.replace t.threads s.id th))
    | exception Unix.Unix_error ((Unix.EINVAL | Unix.EBADF | Unix.ESHUTDOWN), _, _)
      ->
      stop := true
    | exception Unix.Unix_error ((Unix.ECONNABORTED | Unix.EINTR), _, _) ->
      if stopping t then stop := true
    | exception Unix.Unix_error (_, _, _) ->
      (* EMFILE/ENFILE and friends are transient: dying here would leave a
         daemon that looks alive but never accepts again.  Back off briefly
         so fd pressure can clear, then retry. *)
      if stopping t then stop := true
      else begin
        Metrics.incr t.m_accept_errors;
        Thread.delay 0.1
      end
  done

let bind ~family ~metrics ~idle_timeout ~window addr =
  (* a dead peer surfaces as EPIPE from write, not a process-killing signal *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let domain =
    match addr with Wire.Unix_socket _ -> Unix.PF_UNIX | Wire.Tcp _ -> Unix.PF_INET
  in
  let listen_fd = Unix.socket ~cloexec:true domain Unix.SOCK_STREAM 0 in
  match
    (match addr with
    | Wire.Unix_socket path -> if Sys.file_exists path then Unix.unlink path
    | Wire.Tcp _ -> Unix.setsockopt listen_fd Unix.SO_REUSEADDR true);
    Unix.bind listen_fd (Wire.sockaddr_of_addr addr);
    Unix.listen listen_fd 64;
    Unix.getsockname listen_fd
  with
  | exception e ->
    close_quietly listen_fd;
    raise e
  | sockaddr ->
    let name n = family ^ "." ^ n in
    {
      listen_fd;
      bound =
        (match sockaddr with
        | Unix.ADDR_UNIX path -> Wire.Unix_socket path
        | Unix.ADDR_INET (ip, port) -> Wire.Tcp (Unix.string_of_inet_addr ip, port));
      idle_timeout;
      window;
      lock = Mutex.create ();
      live = Hashtbl.create 16;
      threads = Hashtbl.create 16;
      accept_thread = None;
      next_session = 0;
      accepted = 0;
      stopping = false;
      forcing = false;
      m_sessions = Metrics.counter metrics (name "sessions");
      m_failed = Metrics.counter metrics (name "sessions_failed");
      m_accept_errors = Metrics.counter metrics (name "accept_errors");
      m_peak = Metrics.gauge metrics (name "sessions_peak");
      m_events = Metrics.counter metrics (name "events");
      m_batches = Metrics.counter metrics (name "batches");
      m_bytes = Metrics.counter metrics (name "bytes_in");
      m_credits = Metrics.counter metrics (name "credits_granted");
      m_heartbeats = Metrics.counter metrics (name "heartbeats");
      m_verdicts = Metrics.counter metrics (name "verdicts");
      m_batch_events = Metrics.histogram metrics (name "batch_events");
    }

let serve t h = t.accept_thread <- Some (Thread.create (accept_loop t) h)

let stop ?(deadline = 10.) t =
  let already =
    with_lock t (fun () ->
        let s = t.stopping in
        t.stopping <- true;
        s)
  in
  if not already then begin
    (* wake the accept loop: shutdown flips accept() into EINVAL on Linux *)
    (try Unix.shutdown t.listen_fd Unix.SHUTDOWN_RECEIVE
     with Unix.Unix_error _ -> ());
    Option.iter Thread.join t.accept_thread;
    close_quietly t.listen_fd;
    (* drain: let open data sessions run to their verdicts until the deadline *)
    let until = Unix.gettimeofday () +. deadline in
    while active t > 0 && Unix.gettimeofday () < until do
      Thread.delay 0.02
    done;
    (* force-close stragglers (control connections included); their
       threads fail them cleanly *)
    let stragglers =
      with_lock t (fun () ->
          t.forcing <- true;
          Hashtbl.fold (fun _ s acc -> s :: acc) t.live [])
    in
    List.iter
      (fun s -> try Unix.shutdown s.fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
      stragglers;
    let threads =
      with_lock t (fun () -> Hashtbl.fold (fun _ th acc -> th :: acc) t.threads [])
    in
    List.iter Thread.join threads;
    match t.bound with
    | Wire.Unix_socket path -> (try Unix.unlink path with Unix.Unix_error _ -> ())
    | Wire.Tcp _ -> ()
  end
