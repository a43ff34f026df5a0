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
  if capacity <= 0 then invalid_arg "Server.config: capacity";
  if window <= 0 then invalid_arg "Server.config: window";
  if checkpoint_events <= 0 then invalid_arg "Server.config: checkpoint_events";
  let spill_dir =
    match spill_dir with Some d -> d | None -> Filename.get_temp_dir_name ()
  in
  let metrics = match metrics with Some m -> m | None -> Metrics.create () in
  { addr; shards; capacity; window; max_sessions; spill_dir; idle_timeout;
    recheck_spills; checkpoint_events; analyze; monitors; metrics }

type t = {
  cfg : config;
  listener : Listener.t;
  lock : Mutex.t;
  mutable busy : int;  (* checking slots held: live farms and spill re-checks *)
  mutable draining : bool;
  mutable registered : string option;
  (* metrics handles, registered once *)
  m_spilled : Metrics.counter;
  m_events : Metrics.counter;
  m_batches : Metrics.counter;
  m_bytes : Metrics.counter;
  m_credits : Metrics.counter;
  m_heartbeats : Metrics.counter;
  m_verdicts : Metrics.counter;
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

(* Fresh pass instances for one session's analysis lane: pass state is
   per-stream. *)
let session_passes t level =
  (if t.cfg.analyze then Vyrd_analysis.Pass.for_level level else []) @ t.cfg.monitors ()

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let addr t = Listener.addr t.listener
let metrics t = t.cfg.metrics
let sessions t = Listener.sessions t.listener
let active t = Listener.active t.listener
let drain t = with_lock t (fun () -> t.draining <- true)
let draining t = with_lock t (fun () -> t.draining)
let registered t = with_lock t (fun () -> t.registered)

(* Live checking and spill re-checks share the [max_sessions] slots. *)
let take_slot t =
  with_lock t (fun () ->
      let ok = t.busy < t.cfg.max_sessions in
      if ok then t.busy <- t.busy + 1;
      ok)

let release_slot t = with_lock t (fun () -> t.busy <- t.busy - 1)

let status t =
  let checking, draining = with_lock t (fun () -> (t.busy, t.draining)) in
  {
    Wire.st_draining = draining;
    st_active = active t;
    st_checking = checking;
    st_metrics = Metrics.encode t.cfg.metrics;
  }

(* A session in checking mode owns a farm; in spill mode, a segment writer.
   [checking] is decided at hello time from the live checking count. *)

(* Offline re-check of one spilled spool through the session farm template,
   resuming from its latest usable checkpoint and leaving fresh checkpoint
   frames behind so the *next* pass over the same spool is O(suffix). *)
let recheck t ~path =
  let outcome =
    Resume.resume ~capacity:t.cfg.capacity ~metrics:t.cfg.metrics
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

(* A coordinator's control connection: it registers the worker and orders
   the drain. *)
let control t = function
  | Wire.Register name ->
    with_lock t (fun () -> t.registered <- Some name);
    true
  | Wire.Drain ->
    drain t;
    true
  | _ -> false

(* Everything a data connection does, from hello to verdict.  Raises on
   any protocol failure; the caller contains it.  Returns the spool path
   when the session was spilled and reached its verdict, so the caller can
   re-check it offline. *)
let serve_data_session t (s : Listener.session) r hello =
  let fd = s.fd in
  if draining t then raise (Bincodec.Corrupt "server is draining");
  let level = hello.Wire.h_level in
  let checking = take_slot t in
  Fun.protect ~finally:(fun () -> if checking then release_slot t) @@ fun () ->
  (* The sink this session feeds: a farm, or a segment spool under overload.
     Both are torn down through [cleanup] on any exit path. *)
  let farm = ref None in
  let writer = ref None in
  let spill_path = ref None in
  if checking then
    (* Invalid_argument (e.g. a `View shard template refusing an `Io-level
       hello) must fail this session, not kill the server *)
    match Farm.start ~capacity:t.cfg.capacity ~metrics:t.cfg.metrics
            ~passes:(session_passes t level) ~level (t.cfg.shards level) with
    | f -> farm := Some f
    | exception Invalid_argument msg -> raise (Bincodec.Corrupt msg)
  else begin
    let path =
      Filename.concat t.cfg.spill_dir (Printf.sprintf "vyrdd-spill-%06d.seg" s.id)
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
         a_session = s.id;
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
            v_fail_index = Farm.min_fail_index result;
            v_events = !consumed;
            v_spilled = None;
          }
        | None ->
          let w = Option.get !writer in
          Segment.close w;
          writer := None;
          Wire.spilled_verdict ~events:!consumed (Option.get !spill_path)
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
      (match
         Resume.resume_open ~capacity:t.cfg.capacity ~metrics:t.cfg.metrics
           ~passes:(session_passes t level) ~shards:t.cfg.shards ~path ()
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

(* Opportunistic spill re-check, run once the client holds its Spilled
   verdict and its fd is closed, so it costs the client nothing — but under
   the same slot accounting as live checking, so concurrent hellos still
   count it against [max_sessions]. *)
let recheck_spill t path =
  if (not (Listener.stopping t.listener)) && take_slot t then
    Fun.protect ~finally:(fun () -> release_slot t) @@ fun () ->
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
    with Bincodec.Corrupt _ | Invalid_argument _ | Sys_error _ | Unix.Unix_error _ -> ()

let data_session t s r hello =
  match serve_data_session t s r hello with
  | Some path when t.cfg.recheck_spills -> fun () -> recheck_spill t path
  | _ -> ignore

let start cfg =
  let listener =
    Listener.bind ~family:"net" ~metrics:cfg.metrics ~idle_timeout:cfg.idle_timeout
      cfg.addr
  in
  let m = cfg.metrics in
  let t =
    {
      cfg;
      listener;
      lock = Mutex.create ();
      busy = 0;
      draining = false;
      registered = None;
      m_spilled = Metrics.counter m "net.sessions_spilled";
      m_events = Metrics.counter m "net.events";
      m_batches = Metrics.counter m "net.batches";
      m_bytes = Metrics.counter m "net.bytes_in";
      m_credits = Metrics.counter m "net.credits_granted";
      m_heartbeats = Metrics.counter m "net.heartbeats";
      m_verdicts = Metrics.counter m "net.verdicts";
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
  Listener.serve listener
    { Listener.data = data_session t; status = (fun () -> status t); control = control t };
  t

let stop ?deadline t = Listener.stop ?deadline t.listener
