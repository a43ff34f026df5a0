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

(* A checking session feeds a farm of its own, holding one of the
   [max_sessions] slots, which [close] gives back. *)
let farm_sink t level =
  let farm =
    (* Invalid_argument (e.g. a `View shard template refusing an `Io-level
       hello) must fail this session, not kill the server *)
    match
      Farm.start ~capacity:t.cfg.capacity ~metrics:t.cfg.metrics
        ~passes:(session_passes t level) ~level (t.cfg.shards level)
    with
    | f -> ref (Some f)
    | exception Invalid_argument msg ->
      release_slot t;
      raise (Bincodec.Corrupt msg)
  in
  let the_farm () = Option.get !farm in
  (* cluster failover: adopt the half-streamed session spooled by the
     coordinator.  The fresh farm from the hello is replaced by one restored
     from the spool's newest usable checkpoint, and the router's global
     cursor carries over, so the eventual verdict (fail index included) is
     the one an uninterrupted session would have produced. *)
  let resume path =
    ignore (Farm.finish (the_farm ()) : Farm.result);
    farm := None;
    match
      Resume.resume_open ~capacity:t.cfg.capacity ~metrics:t.cfg.metrics
        ~passes:(session_passes t level) ~shards:t.cfg.shards ~path ()
    with
    | rf ->
      farm := Some rf.Resume.rf_farm;
      Metrics.incr t.m_resumes;
      Metrics.add t.m_resume_replayed rf.Resume.rf_replayed;
      (rf.Resume.rf_total, rf.Resume.rf_resumed_at, rf.Resume.rf_replayed)
    | exception (Sys_error msg | Invalid_argument msg) ->
      raise (Bincodec.Corrupt ("resume: " ^ msg))
  in
  let finish ~events =
    let result = Farm.finish (the_farm ()) in
    farm := None;
    count_monitor_summaries t result;
    { Wire.v_report = result.Farm.merged; v_fail_index = Farm.min_fail_index result;
      v_events = events; v_spilled = None }
  in
  let close () =
    Fun.protect ~finally:(fun () -> release_slot t) (fun () ->
        Option.iter (fun f -> count_monitor_summaries t (Farm.finish f)) !farm);
    ignore
  in
  { Listener.spilling = false;
    batch =
      (fun evs n ->
        let f = the_farm () in
        for i = 0 to n - 1 do Farm.feed f evs.(i) done);
    heartbeat = ignore;
    checkpoint = (fun () -> Farm.checkpoint (the_farm ()));
    resume = Some resume; finish; close }

(* A session over the slot limit spools its stream to a segment file; once
   its Spilled verdict is out, the spool may be re-checked. *)
let spill_sink t (s : Listener.session) level =
  let path =
    Filename.concat t.cfg.spill_dir (Printf.sprintf "vyrdd-spill-%06d.seg" s.id)
  in
  let w = Segment.create_writer ~level path in
  Metrics.incr t.m_spilled;
  let verdicted = ref false in
  let finish ~events =
    Segment.close w;
    verdicted := true;
    Wire.spilled_verdict ~events path
  in
  let close () =
    if not !verdicted then (Segment.close w; ignore)
    else if t.cfg.recheck_spills then fun () -> recheck_spill t path
    else ignore
  in
  { Listener.spilling = true;
    batch = (fun evs n -> for i = 0 to n - 1 do Segment.append w evs.(i) done);
    heartbeat = ignore; checkpoint = (fun () -> None); resume = None; finish; close }

(* Checking or spilling is decided at hello time from the slots in use. *)
let data_sink t s (hello : Wire.hello) =
  if draining t then raise (Bincodec.Corrupt "server is draining");
  let level = hello.Wire.h_level in
  if take_slot t then farm_sink t level else spill_sink t s level

let start cfg =
  let listener =
    Listener.bind ~family:"net" ~metrics:cfg.metrics ~idle_timeout:cfg.idle_timeout
      ~window:cfg.window cfg.addr
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
    { Listener.data = data_sink t; status = (fun () -> status t); control = control t };
  t

let stop ?deadline t = Listener.stop ?deadline t.listener
