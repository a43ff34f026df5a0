module Metrics = Vyrd_pipeline.Metrics
module Bincodec = Vyrd_pipeline.Bincodec

type session = { id : int; fd : Unix.file_descr; mutable control : bool }

type handlers = {
  data : session -> Wire.reader -> Wire.hello -> unit -> unit;
  status : unit -> Wire.status;
  control : Wire.client_msg -> bool;
}

type t = {
  listen_fd : Unix.file_descr;
  bound : Wire.addr;
  idle_timeout : float;
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
    h.data s r hello
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

let bind ~family ~metrics ~idle_timeout addr =
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
