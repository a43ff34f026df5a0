open Vyrd
module Farm = Vyrd_pipeline.Farm
module Metrics = Vyrd_pipeline.Metrics
module Segment = Vyrd_pipeline.Segment
module Bincodec = Vyrd_pipeline.Bincodec
module Resume = Vyrd_pipeline.Resume

type config = {
  addr : Wire.addr;
  shards : Log.level -> Farm.shard list;
  capacity : int;
  window : int;
  max_sessions : int;
  spill_dir : string;
  idle_timeout : float;
  recheck_spills : bool;
  checkpoint_events : int;
  analyze : bool;
  monitors : unit -> Vyrd_analysis.Pass.t list;
  metrics : Metrics.t;
}

let config ?(capacity = 4096) ?(window = 8192) ?(max_sessions = 8) ?spill_dir
    ?(idle_timeout = 30.) ?(recheck_spills = false) ?(checkpoint_events = 50_000)
    ?(analyze = false) ?(monitors = fun () -> []) ?metrics ~addr shards =
  if checkpoint_events <= 0 then invalid_arg "Server.config: checkpoint_events";
  let spill_dir =
    match spill_dir with Some d -> d | None -> Filename.get_temp_dir_name ()
  in
  let metrics = match metrics with Some m -> m | None -> Metrics.create () in
  { addr; shards; capacity; window; max_sessions; spill_dir; idle_timeout;
    recheck_spills; checkpoint_events; analyze; monitors; metrics }

type session = {
  s_id : int;
  s_fd : Unix.file_descr;
  mutable s_checking : bool;
  mutable s_control : bool;
      (* a coordinator's Register/Status connection: no farm, no slot, and
         not counted as a draining obstacle by [stop] *)
}

type t = {
  cfg : config;
  listen_fd : Unix.file_descr;
  bound : Wire.addr;
  mutable accept_thread : Thread.t option;
  lock : Mutex.t;
  live : (int, session) Hashtbl.t;
  threads : (int, Thread.t) Hashtbl.t;
  mutable next_session : int;
  mutable accepted : int;
  mutable stopping : bool;
  mutable stopped : bool;
  mutable draining : bool;
  mutable registered : string option;
  (* metrics handles, registered once *)
  m_sessions : Metrics.counter;
  m_failed : Metrics.counter;
  m_accept_errors : Metrics.counter;
  m_spilled : Metrics.counter;
  m_events : Metrics.counter;
  m_batches : Metrics.counter;
  m_bytes : Metrics.counter;
  m_credits : Metrics.counter;
  m_heartbeats : Metrics.counter;
  m_verdicts : Metrics.counter;
  m_peak : Metrics.gauge;
  m_batch_events : Metrics.histogram;
  m_rechecks : Metrics.counter;
  m_recheck_replayed : Metrics.counter;
  m_recheck_resumed : Metrics.counter;
  m_recheck_violations : Metrics.counter;
  m_spill_reclaimed : Metrics.counter;
  m_resumes : Metrics.counter;
  m_resume_replayed : Metrics.counter;
  m_monitor_events : Metrics.counter;
  m_monitor_violations : Metrics.counter;
}

(* Per-session temporal monitors ride the analysis lane; roll their
   summaries up into the [net.*] family so an operator sees violations
   without scraping per-session reports. *)
let count_monitor_summaries t (result : Farm.result) =
  List.iter
    (fun (s : Vyrd_analysis.Pass.summary) ->
      if s.Vyrd_analysis.Pass.pass = "monitor" then begin
        Metrics.add t.m_monitor_events s.Vyrd_analysis.Pass.events;
        Metrics.add t.m_monitor_violations s.Vyrd_analysis.Pass.errors
      end)
    result.Farm.analysis

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let addr t = t.bound
let metrics t = t.cfg.metrics
let sessions t = with_lock t (fun () -> t.accepted)

(* control connections are excluded: they live as long as their coordinator
   and must not look like sessions still draining *)
let active t =
  with_lock t (fun () ->
      Hashtbl.fold (fun _ s n -> if s.s_control then n else n + 1) t.live 0)

let drain t = with_lock t (fun () -> t.draining <- true)
let draining t = with_lock t (fun () -> t.draining)
let registered t = with_lock t (fun () -> t.registered)

let busy_slots t =
  Hashtbl.fold (fun _ s n -> if s.s_checking then n + 1 else n) t.live 0

let status t =
  let active, checking, draining =
    with_lock t (fun () ->
        ( Hashtbl.fold (fun _ s n -> if s.s_control then n else n + 1) t.live 0,
          busy_slots t,
          t.draining ))
  in
  {
    Wire.st_draining = draining;
    st_active = active;
    st_checking = checking;
    st_metrics = Metrics.encode t.cfg.metrics;
  }

(* A session in checking mode owns a farm; in spill mode, a segment writer.
   [checking] is decided at hello time from the live checking count. *)

let trivial_report events =
  {
    Report.outcome = Report.Pass;
    stats =
      {
        Report.events_processed = events;
        methods_checked = 0;
        commits_resolved = 0;
        per_method = [];
        queue_high_water = 0;
      };
  }

let min_fail_index (result : Farm.result) =
  List.fold_left
    (fun acc (sr : Farm.shard_result) ->
      match (acc, sr.Farm.sr_fail_index) with
      | None, i -> i
      | Some a, Some b -> Some (min a b)
      | Some _, None -> acc)
    None result.Farm.shards

(* Offline re-check of one spilled spool through the session farm template,
   resuming from its latest usable checkpoint and leaving fresh checkpoint
   frames behind so the *next* pass over the same spool is O(suffix). *)
let recheck t ~path =
  let outcome =
    Resume.resume_farm ~capacity:t.cfg.capacity ~metrics:t.cfg.metrics
      ~annotate_every:t.cfg.checkpoint_events ~shards:t.cfg.shards ~path ()
  in
  Metrics.incr t.m_rechecks;
  Metrics.add t.m_recheck_replayed outcome.Resume.replayed;
  (match outcome.Resume.resumed_at with
  | Some _ -> Metrics.incr t.m_recheck_resumed
  | None -> ());
  (match outcome.Resume.report.Report.outcome with
  | Report.Fail _ -> Metrics.incr t.m_recheck_violations
  | Report.Pass -> ());
  outcome

(* A coordinator's control connection: Register/Status_request instead of a
   hello.  No farm, no checking slot; answers health polls and the drain
   order until the peer goes away. *)
let control_loop t (s : session) r =
  let fd = s.s_fd in
  s.s_control <- true;
  (* polled at the coordinator's pace, not ours: disarm the data-session
     idle timeout *)
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 0.;
  Unix.setsockopt_float fd Unix.SO_SNDTIMEO 0.;
  let finished = ref false in
  while not !finished do
    match Wire.recv r fd with
    | Wire.Message Wire.Status_request -> Wire.send_server fd (Wire.Status (status t))
    | Wire.Message Wire.Drain ->
      with_lock t (fun () -> t.draining <- true);
      Wire.send_server fd (Wire.Status (status t))
    | Wire.Message Wire.Heartbeat -> Wire.send_server fd Wire.Heartbeat_ack
    | Wire.Message Wire.Finish -> finished := true
    | _ -> raise (Bincodec.Corrupt "unexpected message on a control connection")
    | exception Wire.Closed -> finished := true
  done

(* Everything a data connection does, from hello to verdict.  Raises on
   any protocol failure; the caller contains it.  Returns the spool path
   when the session was spilled and reached its verdict, so the caller can
   re-check it offline. *)
let serve_data_session t (s : session) r hello =
  let fd = s.s_fd in
  if with_lock t (fun () -> t.draining) then
    raise (Bincodec.Corrupt "server is draining");
  if hello.Wire.h_version <> Wire.version then
    raise
      (Bincodec.Corrupt
         (Printf.sprintf "protocol version %d, expected %d" hello.Wire.h_version
            Wire.version));
  let level = hello.Wire.h_level in
  let checking =
    with_lock t (fun () ->
        let busy =
          Hashtbl.fold (fun _ s n -> if s.s_checking then n + 1 else n) t.live 0
        in
        let ok = busy < t.cfg.max_sessions in
        s.s_checking <- ok;
        ok)
  in
  (* The sink this session feeds: a farm, or a segment spool under overload.
     Both are torn down through [cleanup] on any exit path. *)
  let farm = ref None in
  let writer = ref None in
  let spill_path = ref None in
  if checking then
    (* Invalid_argument (e.g. a `View shard template refusing an `Io-level
       hello) must fail this session, not kill the server *)
    (* each session gets fresh pass instances: pass state is per-stream *)
    let passes =
      (if t.cfg.analyze then Vyrd_analysis.Pass.for_level level else [])
      @ t.cfg.monitors ()
    in
    match Farm.start ~capacity:t.cfg.capacity ~metrics:t.cfg.metrics ~passes
            ~level (t.cfg.shards level) with
    | f -> farm := Some f
    | exception Invalid_argument msg -> raise (Bincodec.Corrupt msg)
  else begin
    let path =
      Filename.concat t.cfg.spill_dir (Printf.sprintf "vyrdd-spill-%06d.seg" s.s_id)
    in
    writer := Some (Segment.create_writer ~level path);
    spill_path := Some path;
    Metrics.incr t.m_spilled
  end;
  let cleanup () =
    (match !farm with
    | Some f -> count_monitor_summaries t (Farm.finish f)
    | None -> ());
    match !writer with Some w -> Segment.close w | None -> ()
  in
  Fun.protect ~finally:cleanup @@ fun () ->
  Wire.send_server fd
    (Wire.Hello_ack
       {
         a_version = Wire.version;
         a_session = s.s_id;
         a_credit = t.cfg.window;
         a_spilling = not checking;
       });
  let consumed = ref 0 in
  let ungranted = ref 0 in
  let grant_at = max 1 (t.cfg.window / 2) in
  let finished = ref false in
  (* [evs.(0 .. n - 1)] live in the reader's array: both sinks are done
     with them (the farm routed each event, the writer encoded it) before
     the next [recv] overwrites it *)
  let on_batch evs n =
    (match !farm with
    | Some f ->
      for i = 0 to n - 1 do
        Farm.feed f evs.(i)
      done
    | None ->
      let w = Option.get !writer in
      for i = 0 to n - 1 do
        Segment.append w evs.(i)
      done);
    consumed := !consumed + n;
    ungranted := !ungranted + n;
    Metrics.add t.m_events n;
    Metrics.incr t.m_batches;
    Metrics.observe t.m_batch_events n;
    if !ungranted >= grant_at then begin
      Wire.send_server fd (Wire.Credit !ungranted);
      Metrics.add t.m_credits !ungranted;
      ungranted := 0
    end
  in
  while not !finished do
    let msg = Wire.recv r fd in
    Metrics.add t.m_bytes (Wire.frame_bytes r);
    match msg with
    | Wire.Events (evs, n) -> on_batch evs n
    | Wire.Message (Wire.Batch evs) -> on_batch evs (Array.length evs)
    | Wire.Message (Wire.Hello _) -> raise (Bincodec.Corrupt "unexpected second hello")
    | Wire.Message Wire.Heartbeat ->
      Metrics.incr t.m_heartbeats;
      Wire.send_server fd Wire.Heartbeat_ack
    | Wire.Message Wire.Finish ->
      let verdict =
        match !farm with
        | Some f ->
          let result = Farm.finish f in
          farm := None;
          count_monitor_summaries t result;
          {
            Wire.v_report = result.Farm.merged;
            v_fail_index = min_fail_index result;
            v_events = !consumed;
            v_spilled = None;
          }
        | None ->
          let w = Option.get !writer in
          Segment.close w;
          writer := None;
          {
            Wire.v_report = trivial_report !consumed;
            v_fail_index = None;
            v_events = !consumed;
            v_spilled = !spill_path;
          }
      in
      Wire.send_server fd (Wire.Verdict verdict);
      Metrics.incr t.m_verdicts;
      finished := true
    | Wire.Message (Wire.Resume_session path) ->
      (* cluster failover: adopt the half-streamed session spooled by the
         coordinator.  Only valid as the session's first traffic — the
         fresh farm from the hello is replaced by one restored from the
         spool's newest usable checkpoint, and the router's global cursor
         carries over, so the eventual verdict (fail index included) is the
         one an uninterrupted session would have produced. *)
      if not checking then
        raise (Bincodec.Corrupt "resume on a spilling session");
      if !consumed > 0 then
        raise (Bincodec.Corrupt "resume after events were received");
      (match !farm with
      | Some f ->
        ignore (Farm.finish f : Farm.result);
        farm := None
      | None -> ());
      let passes =
        (if t.cfg.analyze then Vyrd_analysis.Pass.for_level level else [])
        @ t.cfg.monitors ()
      in
      (match
         Resume.resume_farm_open ~capacity:t.cfg.capacity
           ~metrics:t.cfg.metrics ~passes ~shards:t.cfg.shards ~path ()
       with
      | rf ->
        farm := Some rf.Resume.rf_farm;
        consumed := rf.Resume.rf_total;
        Metrics.incr t.m_resumes;
        Metrics.add t.m_resume_replayed rf.Resume.rf_replayed;
        Wire.send_server fd
          (Wire.Resume_ack
             {
               ra_events = rf.Resume.rf_total;
               ra_resumed_at = rf.Resume.rf_resumed_at;
               ra_replayed = rf.Resume.rf_replayed;
             })
      | exception Sys_error msg -> raise (Bincodec.Corrupt ("resume: " ^ msg))
      | exception Invalid_argument msg ->
        raise (Bincodec.Corrupt ("resume: " ^ msg)))
    | Wire.Message Wire.Checkpoint_request ->
      (* in-band barrier: by protocol order every batch before this request
         has been fed, so the snapshot covers exactly [consumed] events *)
      let state = match !farm with Some f -> Farm.checkpoint f | None -> None in
      Wire.send_server fd
        (Wire.Checkpoint_state { cs_events = !consumed; cs_state = state })
    | Wire.Message Wire.Status_request -> Wire.send_server fd (Wire.Status (status t))
    | Wire.Message (Wire.Drain | Wire.Register _) ->
      raise (Bincodec.Corrupt "control message on a data session")
  done;
  if checking then None else !spill_path

(* First message decides what this connection is: a hello opens a data
   session, Register/Status_request a control one. *)
let serve_session t (s : session) =
  let fd = s.s_fd in
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO t.cfg.idle_timeout;
  (* a peer that stops *reading* must not pin this thread in a blocking
     write (Credit/Verdict) past the idle timeout either *)
  Unix.setsockopt_float fd Unix.SO_SNDTIMEO t.cfg.idle_timeout;
  let r = Wire.reader () in
  match Wire.recv r fd with
  | Wire.Message (Wire.Hello hello) -> serve_data_session t s r hello
  | Wire.Message (Wire.Register name) ->
    with_lock t (fun () -> t.registered <- Some name);
    Wire.send_server fd (Wire.Status (status t));
    control_loop t s r;
    None
  | Wire.Message Wire.Status_request ->
    (* one-shot probe: answer, then keep serving polls *)
    Wire.send_server fd (Wire.Status (status t));
    control_loop t s r;
    None
  | _ -> raise (Bincodec.Corrupt "expected hello")

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

let session_thread t s =
  let failed msg =
    Metrics.incr t.m_failed;
    (* best effort: the peer may already be gone *)
    try Wire.send_server s.s_fd (Wire.Error msg)
    with Unix.Unix_error _ | Wire.Closed | Wire.Timeout -> ()
  in
  (* the fd close and live/threads removal below must run on *every* exit,
     else the session pins a checking slot forever — hence the catch-all *)
  let spilled =
    try serve_session t s with
    | Bincodec.Corrupt msg -> failed msg; None
    | Wire.Closed -> failed "connection closed mid-session"; None
    | Wire.Timeout -> failed "session idle timeout"; None
    | Unix.Unix_error (e, _, _) -> failed (Unix.error_message e); None
    | Sys_error msg -> failed msg; None
    | e -> failed ("unexpected exception: " ^ Printexc.to_string e); None
  in
  close_quietly s.s_fd;
  (* Opportunistic spill re-check: the client already has its Spilled
     verdict, so this costs it nothing — but it must obey the same slot
     accounting as live checking.  The session stays in [t.live] with
     [s_checking] set while the farm runs, so concurrent hellos still count
     it against [max_sessions]. *)
  (match spilled with
  | Some path when t.cfg.recheck_spills ->
    let slot =
      with_lock t (fun () ->
          let busy =
            Hashtbl.fold (fun _ s n -> if s.s_checking then n + 1 else n) t.live 0
          in
          if (not t.stopping) && busy < t.cfg.max_sessions then begin
            s.s_checking <- true;
            true
          end
          else false)
    in
    if slot then begin
      (* best effort: the spool stays on disk for [vyrd-check check --resume]
         whatever happens here *)
      try
        let outcome = recheck t ~path in
        match outcome.Resume.report.Report.outcome with
        | Report.Pass when not outcome.Resume.truncated ->
          (* verified clean end to end: reclaim the disk.  Violating or
             truncated spools stay for forensics and offline reruns. *)
          (try Sys.remove path with Sys_error _ -> ());
          Metrics.incr t.m_spill_reclaimed
        | _ -> ()
      with Bincodec.Corrupt _ | Invalid_argument _ | Sys_error _
         | Unix.Unix_error _ -> ()
    end
  | _ -> ());
  with_lock t (fun () ->
      Hashtbl.remove t.live s.s_id;
      Hashtbl.remove t.threads s.s_id)

let accept_loop t =
  let stop = ref false in
  while not !stop do
    match Unix.accept ~cloexec:true t.listen_fd with
    | fd, _ ->
      if with_lock t (fun () -> t.stopping) then begin
        close_quietly fd
      end
      else begin
        let s =
          with_lock t (fun () ->
              let id = t.next_session in
              t.next_session <- id + 1;
              t.accepted <- t.accepted + 1;
              let s = { s_id = id; s_fd = fd; s_checking = false; s_control = false } in
              Hashtbl.replace t.live id s;
              s)
        in
        Metrics.incr t.m_sessions;
        let th = Thread.create (fun () -> session_thread t s) () in
        with_lock t (fun () ->
            Metrics.record t.m_peak (Hashtbl.length t.live);
            if Hashtbl.mem t.live s.s_id then Hashtbl.replace t.threads s.s_id th)
      end
    | exception Unix.Unix_error ((Unix.EINVAL | Unix.EBADF | Unix.ESHUTDOWN), _, _)
      ->
      stop := true
    | exception Unix.Unix_error ((Unix.ECONNABORTED | Unix.EINTR), _, _) ->
      if with_lock t (fun () -> t.stopping) then stop := true
    | exception Unix.Unix_error (_, _, _) ->
      (* EMFILE/ENFILE and friends are transient: dying here would leave a
         daemon that looks alive but never accepts again.  Back off briefly
         so fd pressure can clear, then retry. *)
      if with_lock t (fun () -> t.stopping) then stop := true
      else begin
        Metrics.incr t.m_accept_errors;
        Thread.delay 0.1
      end
  done

let start cfg =
  (* a dead peer surfaces as EPIPE from write, not a process-killing signal *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let domain =
    match cfg.addr with
    | Wire.Unix_socket _ -> Unix.PF_UNIX
    | Wire.Tcp _ -> Unix.PF_INET
  in
  let listen_fd = Unix.socket ~cloexec:true domain Unix.SOCK_STREAM 0 in
  match
    (match cfg.addr with
     | Wire.Unix_socket path ->
       if Sys.file_exists path then Unix.unlink path
     | Wire.Tcp _ -> Unix.setsockopt listen_fd Unix.SO_REUSEADDR true);
    Unix.bind listen_fd (Wire.sockaddr_of_addr cfg.addr);
    Unix.listen listen_fd 64;
    (match Unix.getsockname listen_fd with
    | Unix.ADDR_UNIX path -> Wire.Unix_socket path
    | Unix.ADDR_INET (ip, port) -> Wire.Tcp (Unix.string_of_inet_addr ip, port))
  with
  | exception e ->
    close_quietly listen_fd;
    raise e
  | bound ->
    let m = cfg.metrics in
    let t =
      {
        cfg;
        listen_fd;
        bound;
        accept_thread = None;
        lock = Mutex.create ();
        live = Hashtbl.create 16;
        threads = Hashtbl.create 16;
        next_session = 0;
        accepted = 0;
        stopping = false;
        stopped = false;
        draining = false;
        registered = None;
        m_sessions = Metrics.counter m "net.sessions";
        m_failed = Metrics.counter m "net.sessions_failed";
        m_accept_errors = Metrics.counter m "net.accept_errors";
        m_spilled = Metrics.counter m "net.sessions_spilled";
        m_events = Metrics.counter m "net.events";
        m_batches = Metrics.counter m "net.batches";
        m_bytes = Metrics.counter m "net.bytes_in";
        m_credits = Metrics.counter m "net.credits_granted";
        m_heartbeats = Metrics.counter m "net.heartbeats";
        m_verdicts = Metrics.counter m "net.verdicts";
        m_peak = Metrics.gauge m "net.sessions_peak";
        m_batch_events = Metrics.histogram m "net.batch_events";
        m_rechecks = Metrics.counter m "net.spill_rechecks";
        m_recheck_replayed = Metrics.counter m "net.spill_recheck_replayed";
        m_recheck_resumed = Metrics.counter m "net.spill_recheck_resumed";
        m_recheck_violations = Metrics.counter m "net.spill_recheck_violations";
        m_spill_reclaimed = Metrics.counter m "net.spill_reclaimed";
        m_resumes = Metrics.counter m "net.session_resumes";
        m_resume_replayed = Metrics.counter m "net.session_resume_replayed";
        m_monitor_events = Metrics.counter m "net.monitor_events";
        m_monitor_violations = Metrics.counter m "net.monitor_violations";
      }
    in
    t.accept_thread <- Some (Thread.create accept_loop t);
    t

let stop ?(deadline = 10.) t =
  let already = with_lock t (fun () ->
      let s = t.stopped in
      t.stopping <- true;
      t.stopped <- true;
      s)
  in
  if not already then begin
    (* wake the accept loop: shutdown flips accept() into EINVAL on Linux *)
    (try Unix.shutdown t.listen_fd Unix.SHUTDOWN_RECEIVE
     with Unix.Unix_error _ -> ());
    (match t.accept_thread with Some th -> Thread.join th | None -> ());
    close_quietly t.listen_fd;
    (* drain: let open sessions run to their verdict until the deadline *)
    let until = Unix.gettimeofday () +. deadline in
    while active t > 0 && Unix.gettimeofday () < until do
      Thread.delay 0.02
    done;
    (* force-close stragglers; their threads fail the session cleanly *)
    let stragglers =
      with_lock t (fun () -> Hashtbl.fold (fun _ s acc -> s :: acc) t.live [])
    in
    List.iter
      (fun s ->
        try Unix.shutdown s.s_fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
      stragglers;
    let threads =
      with_lock t (fun () -> Hashtbl.fold (fun _ th acc -> th :: acc) t.threads [])
    in
    List.iter Thread.join threads;
    match t.bound with
    | Wire.Unix_socket path -> (try Unix.unlink path with Unix.Unix_error _ -> ())
    | Wire.Tcp _ -> ()
  end
