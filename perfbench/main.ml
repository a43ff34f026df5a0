(* perfbench: the repository's end-to-end benchmark.

   main.exe --workload NAME --seed N --seconds S --trace 0|1

   Each workload runs independent units — one random §7.1 test program per
   unit, its seed derived from the workload seed — in a closed loop for S
   seconds, checks every unit's verdict against the offline reference
   computed in set-up, and prints its metrics; the last line of standard
   output is one JSON object.  With --trace 1 the run measures untraced for
   S/2 seconds, then spans its own calls into every layer for S/2 seconds
   and prints the per-layer metrics instead.  perfbench/README.md has the
   workloads, the metrics and what each layer metric should move. *)

open Vyrd
module Harness = Vyrd_harness.Harness
module Subjects = Vyrd_harness.Subjects
module Farm = Vyrd_pipeline.Farm
module Metrics = Vyrd_pipeline.Metrics
module Wire = Vyrd_net.Wire
module Client = Vyrd_net.Client
module Server = Vyrd_net.Server
module Pass = Vyrd_analysis.Pass
module Monitor = Vyrd_monitor.Monitor
module Lin = Vyrd_lin.Backend
module Stats = Perfbench.Stats
module Trace = Perfbench.Trace

(* The three disjoint-namespace subjects, checked as one Spec_compose
   product on one farm lane. *)
let subjects = [ Subjects.multiset_vector; Subjects.jvector; Subjects.string_buffer ]

let spec, view =
  match subjects with
  | [] -> assert false
  | s0 :: rest ->
    List.fold_left
      (fun (spec, view) (s : Subjects.t) ->
        (Spec_compose.pair spec s.spec, Spec_compose.pair_views view s.view))
      (s0.spec, s0.view) rest

let lin_specs = List.map (fun (s : Subjects.t) -> (s.name, s.spec)) subjects
let builds bug = List.map (fun (s : Subjects.t) -> s.build ~bug) subjects
let is_io level = match level with `None | `Io -> true | `View | `Full -> false

let shard level =
  if is_io level then Farm.shard ~mode:`Io "composite" spec
  else Farm.shard ~mode:`View ~view "composite" spec

let checker level =
  if is_io level then Checker.create ~mode:`Io spec
  else Checker.create ~mode:`View ~view spec

let reference level log =
  let report, idx =
    if is_io level then Checker.check_indexed ~mode:`Io log spec
    else Checker.check_indexed ~mode:`View ~view log spec
  in
  (Report.tag report, idx)

let now = Mclock.now_ns
let secs ns = float_of_int ns /. 1e9
let chunk = 256

(* ---------------------------------------------------------------------- *)
(* Workloads                                                               *)

type path = Online | Service | Analyze

type workload = {
  name : string;
  level : Log.level;
  path : path;
  threads : int;
  ops : int;  (* per thread, per unit program *)
  pool : int;  (* distinct units; the measured loop cycles through them *)
  bug_every : int;  (* every k-th unit is built with ~bug:true; 0 = none *)
  domains : int;  (* busy domains of the measured phase *)
}

let workloads =
  [
    { name = "online-view"; level = `View; path = Online; threads = 4; ops = 300;
      pool = 32; bug_every = 8; domains = 2 };
    { name = "service-io"; level = `Io; path = Service; threads = 4; ops = 600;
      pool = 32; bug_every = 8; domains = 2 };
    { name = "analyze-full"; level = `Full; path = Analyze; threads = 4; ops = 20;
      pool = 96; bug_every = 0; domains = 1 };
  ]

(* The traced phase runs every layer on the workload's units, one op at a
   time: never more than main plus one farm lane. *)
let traced_domains = 2

type unit_ = {
  id : int;
  bug : bool;
  cfg : Harness.config;
  events : Event.t array;
  chunks : Event.t array array;  (* the 256-event batches a client sends *)
  full : Event.t array array Lazy.t;  (* the same program at `Full, sliced *)
  tag : string;  (* reference verdict, Checker.check_indexed *)
  idx : int option;  (* reference first-violation index *)
}

let slices evs =
  let n = Array.length evs in
  Array.init ((n + chunk - 1) / chunk) (fun i ->
      Array.sub evs (i * chunk) (min chunk (n - (i * chunk))))

let generate (cfg : Harness.config) bug =
  let log = Log.create ~level:cfg.log_level () in
  Harness.run_into ~log cfg (builds bug);
  log

let is_bug w id = w.bug_every > 0 && id mod w.bug_every = w.bug_every - 1

let unit_cfg w ~seed id attempt =
  { Harness.threads = w.threads; ops_per_thread = w.ops; key_pool = 12; key_range = 32;
    seed = Stats.unit_seed ~seed ~index:id ~attempt; log_level = w.level }

(* A seeded-fault unit takes the first derived seed whose program the
   reference convicts, so every such unit exercises the conviction path.
   The search runs once per run, before set-up, and is not part of
   setup_s: how many attempts it needs depends on the seed, while set-up
   does the same work for every seed, one generation and one reference
   check per unit. *)
let choose_cfgs w ~seed =
  Array.init w.pool (fun id ->
      let rec attempt k =
        if k >= 256 then
          failwith (Printf.sprintf "%s: unit %d: no convicting seed in 256 attempts" w.name id);
        let cfg = unit_cfg w ~seed id k in
        if snd (reference w.level (generate cfg true)) = None then attempt (k + 1) else cfg
      in
      if is_bug w id then attempt 0 else unit_cfg w ~seed id 0)

let make_unit w id cfg =
  let bug = is_bug w id in
  let log = generate cfg bug in
  let tag, idx = reference w.level log in
  if bug && idx = None then
    failwith (Printf.sprintf "%s: unit %d: its program changed between generations" w.name id);
  let events = Log.snapshot log in
  let chunks = slices events in
  let full =
    if w.level = `Full then Lazy.from_val chunks
    else lazy (slices (Log.snapshot (generate { cfg with log_level = `Full } bug)))
  in
  { id; bug; cfg; events; chunks; full; tag; idx }

let start_server ~metrics sock level_of_session =
  Server.start
    (Server.config ~metrics ~addr:(Wire.Unix_socket sock) level_of_session)

type ctx = { units : unit_ array; server : Server.t option }

(* The units are built by two domains, half each, where the host has two
   cores.  A single domain's speed depends on which core it lands on: on
   the 2-vCPU host in README.md the same set-up took 0.14 s pinned to one
   and 0.21 s pinned to the other, and a process moves between them every
   few seconds.  Two domains span both cores, as the measured phases do. *)
let build_units w cfgs =
  let part lo hi = Array.init (hi - lo) (fun i -> make_unit w (lo + i) cfgs.(lo + i)) in
  let n = Array.length cfgs in
  if Domain.recommended_domain_count () < 2 then part 0 n
  else
    let half = (n + 1) / 2 in
    let other = Domain.spawn (fun () -> part half n) in
    let first = part 0 half in
    Array.append first (Domain.join other)

(* Deterministic work only, ending with a full major GC. *)
let setup w cfgs ~sock =
  let units = build_units w cfgs in
  let server =
    match w.path with
    | Service -> Some (start_server ~metrics:(Metrics.create ()) sock (fun l -> [ shard l ]))
    | Online | Analyze -> None
  in
  Gc.full_major ();
  { units; server }

let teardown ctx = Option.iter (fun s -> Server.stop s) ctx.server

(* ---------------------------------------------------------------------- *)
(* Unit operations.  Each returns (events, ok); [tr] spans the calls.      *)

type tally = {
  mutable harness_events : int;
  mutable log_dropped : int;
  mutable client_events : int;
  mutable client_bytes : int;
  mutable checker_events : int;
  mutable methods_checked : int;
  mutable view_projections : int;
  mutable codec_events : int;
  mutable codec_batches : int;
  mutable analysis_errors : int;
  mutable monitor_violations : int;
  mutable lin_nodes : int;
  mutable lin_undos : int;
  mutable lin_memo_hits : int;
  mutable lin_ops : int;
}

let tally () =
  { harness_events = 0; log_dropped = 0; client_events = 0; client_bytes = 0;
    checker_events = 0; methods_checked = 0; view_projections = 0;
    codec_events = 0; codec_batches = 0; analysis_errors = 0;
    monitor_violations = 0; lin_nodes = 0; lin_undos = 0; lin_memo_hits = 0;
    lin_ops = 0 }

let dummy = Event.Commit { tid = -1 }

(* online-view: program run with a one-lane farm attached as a log
   listener; latency runs to Farm.finish.  Traced, the listener buffers
   256-event slices so the farm is spanned per slice. *)
let op_online ?tr ~metrics tl level u =
  let farm = Farm.start ~metrics ~level [ shard level ] in
  let log = Log.create ~level () in
  let flush =
    match tr with
    | None ->
      Farm.attach farm log;
      ignore
    | Some _ ->
      let buf = Array.make chunk dummy and n = ref 0 in
      let flush () =
        if !n > 0 then begin
          let s = if !n = chunk then buf else Array.sub buf 0 !n in
          Trace.span tr "farm.feed" (fun () -> Farm.feed_batch farm s);
          n := 0
        end
      in
      Log.subscribe log (fun ev ->
          buf.(!n) <- ev;
          incr n;
          if !n = chunk then flush ());
      flush
  in
  (match Trace.span tr "harness" (fun () -> Harness.run_into ~log u.cfg (builds u.bug)) with
  | () -> flush ()
  | exception e ->
    ignore (Farm.finish farm : Farm.result);
    raise e);
  let r = Trace.span tr "farm.finish" (fun () -> Farm.finish farm) in
  let n = Log.length log in
  tl.harness_events <- tl.harness_events + n;
  tl.log_dropped <- tl.log_dropped + Log.dropped log;
  ( n,
    n = Array.length u.events
    && Report.tag r.Farm.merged = u.tag
    && Farm.min_fail_index r = u.idx )

(* service-io: one client session per unit against the in-process server;
   latency runs from connect to verdict. *)
let op_service ?tr tl addr level u =
  let c =
    Trace.span tr "client.connect" (fun () -> Client.connect ~level ~batch_events:chunk addr)
  in
  match
    Trace.span tr "client.send" (fun () -> Array.iter (Client.send_batch c) u.chunks);
    Trace.span tr "client.finish" (fun () -> Client.finish c)
  with
  | outcome ->
    let n = Array.length u.events in
    tl.client_events <- tl.client_events + n;
    tl.client_bytes <- tl.client_bytes + Client.bytes_sent c;
    ( n,
      match outcome with
      | Client.Checked { report; fail_index } ->
        Report.tag report = u.tag && fail_index = u.idx
      | Client.Spilled _ -> false )
  | exception e ->
    Client.close c;
    raise e

let pass_span (p : Pass.t) =
  "analysis." ^ if p.name = "race" then "racedetect" else p.name

(* analyze-full: lint, lockgraph, racedetect, the built-in monitors and a
   lin collector over the unit's program at `Full, fed slice by slice;
   latency runs from the first feed to the last summary.  Clean units must
   come out clean on every one of them.  As a probe on the other workloads
   it runs on the unit's `Full twin, so the lock and read paths of the
   passes and monitors run there too. *)
let op_analyze ?tr tl u =
  let passes = Pass.for_level `Full in
  let mon = Monitor.pass (Monitor.builtins ()) in
  let lin = Lin.collector ~specs:lin_specs () in
  let chunks = Lazy.force u.full in
  Array.iter
    (fun slice ->
      List.iter
        (fun (p : Pass.t) -> Trace.span tr (pass_span p) (fun () -> Array.iter p.feed slice))
        passes;
      Trace.span tr "monitor" (fun () -> Array.iter mon.feed slice);
      Trace.span tr "lin.feed" (fun () -> Array.iter (Lin.feed lin) slice))
    chunks;
  let errors =
    List.fold_left
      (fun acc (p : Pass.t) -> acc + (Trace.span tr (pass_span p) p.finish).Pass.errors)
      0 passes
  in
  let violations = (Trace.span tr "monitor" mon.finish).Pass.errors in
  let l = Trace.span tr "lin.finish" (fun () -> Lin.finish lin) in
  tl.analysis_errors <- tl.analysis_errors + errors;
  tl.monitor_violations <- tl.monitor_violations + violations;
  List.iter
    (fun (r : Lin.structure_result) ->
      tl.lin_nodes <- tl.lin_nodes + r.ls_stats.nodes;
      tl.lin_undos <- tl.lin_undos + r.ls_stats.undos;
      tl.lin_memo_hits <- tl.lin_memo_hits + r.ls_stats.memo_hits;
      tl.lin_ops <- tl.lin_ops + r.ls_ops)
    l.Lin.structures;
  ( Array.length u.events,
    u.bug || (errors = 0 && violations = 0 && Lin.clean l) )

(* Traced only: the unit's events replayed through Checker.feed on the
   main domain, the single-threaded checking baseline. *)
let probe_checker ?tr tl level u =
  let ch = checker level in
  let pos = ref 0 and first = ref None in
  Array.iter
    (fun slice ->
      Trace.span tr "checker" (fun () ->
          Array.iter
            (fun ev ->
              (match Checker.feed ch ev with
              | Some _ when !first = None -> first := Some !pos
              | _ -> ());
              incr pos)
            slice))
    u.chunks;
  tl.checker_events <- tl.checker_events + !pos;
  tl.methods_checked <- tl.methods_checked + Checker.methods_checked ch;
  tl.view_projections <- tl.view_projections + Checker.view_projections ch;
  Report.tag (Checker.report ch) = u.tag && !first = u.idx

(* Traced only: Bincodec and Wire framing on the session's own chunks. *)
let probe_codec ?tr tl u =
  Array.for_all
    (fun slice ->
      let payload =
        Trace.span tr "bincodec.encode" (fun () -> Wire.encode_client (Wire.Batch slice))
      in
      let framed = Trace.span tr "wire.frame" (fun () -> Wire.frame payload) in
      let back = Trace.span tr "bincodec.decode" (fun () -> Wire.decode_client payload) in
      tl.codec_events <- tl.codec_events + Array.length slice;
      tl.codec_batches <- tl.codec_batches + 1;
      String.length framed > String.length payload
      && match back with Wire.Batch evs -> Array.length evs = Array.length slice | _ -> false)
    u.chunks

(* ---------------------------------------------------------------------- *)
(* Measured phases                                                         *)

type phase = {
  units_run : int;
  failed : int;
  ev_total : int;
  wall_ns : int;
  latencies : float array;  (* per unit, ms, sorted *)
}

(* Closed loop over the pool until [seconds] have passed and at least
   [min_units] units ran. *)
let run_phase ctx ~seconds ~min_units op =
  let pool = Array.length ctx.units in
  let lat = ref [] and events = ref 0 and n = ref 0 and failed = ref 0 in
  let t0 = now () in
  let deadline = t0 + int_of_float (seconds *. 1e9) in
  while now () < deadline || !n < min_units do
    let u = ctx.units.(!n mod pool) in
    let s = now () in
    let ok =
      match op !n u with
      | ev, ok ->
        events := !events + ev;
        ok
      | exception e ->
        Printf.eprintf "unit %d raised %s\n%!" u.id (Printexc.to_string e);
        false
    in
    lat := float_of_int (now () - s) /. 1e6 :: !lat;
    if not ok then incr failed;
    incr n
  done;
  let wall_ns = now () - t0 in
  { units_run = !n; failed = !failed; ev_total = !events; wall_ns;
    latencies = Stats.sorted_of_list !lat }

let path_op ?tr w ~metrics ~addr tl =
  match w.path with
  | Online -> op_online ?tr ~metrics tl w.level
  | Service -> op_service ?tr tl (Option.get addr) w.level
  | Analyze -> op_analyze ?tr tl

let vmhwm_mb () =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | s -> ( match Stats.vmhwm_kb s with Some kb -> float_of_int kb /. 1024. | None -> nan)
  | exception Sys_error _ -> nan

(* Sets VmHWM back to the current RSS, so that rss_peak_mb is the peak of
   the warm-up and the measured phase and not that of set-up.  Returns
   false where the kernel does not allow it. *)
let reset_hwm () =
  match Out_channel.with_open_text "/proc/self/clear_refs" (fun oc -> output_string oc "5") with
  | () -> true
  | exception Sys_error _ -> false

(* The Reference oracle on a sample: the first clean and the first
   seeded-fault unit. *)
let reference_sample w ctx =
  let pick p = Array.find_opt p ctx.units in
  List.for_all
    (fun u ->
      let log = Log.of_events (Array.to_list u.events) in
      let r =
        if is_io w.level then Reference.check_indexed log spec
        else Reference.check_indexed ~view log spec
      in
      match r with
      | Ok () -> u.idx = None && u.tag = "pass"
      | Error f -> u.idx = Some f.Reference.f_index && u.tag = f.Reference.f_kind)
    (List.filter_map Fun.id [ pick (fun u -> not u.bug); pick (fun u -> u.bug) ])

(* ---------------------------------------------------------------------- *)
(* Output                                                                  *)

let json_num f = if Float.is_finite f then Printf.sprintf "%.17g" f else "null"

let print_result ~correct ~attempted ~failed metrics =
  Printf.printf "%-34s %16s  %s\n" "metric" "value" "unit";
  List.iter (fun (name, v, unit, note) -> Printf.printf "%-34s %16.6g  %-6s %s\n" name v unit note) metrics;
  let body =
    String.concat ","
      (List.map
         (fun (name, v, unit, _) ->
           Printf.sprintf "%S:{\"value\":%s,\"unit\":%S}" name (json_num v) unit)
         metrics)
  in
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n%!"
    correct attempted failed body

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME online-view | service-io | analyze-full");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 per-layer traced run");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  let w =
    match List.find_opt (fun w -> w.name = !workload) workloads with
    | Some w -> w
    | None ->
      Printf.eprintf "unknown workload %S (known: %s)\n" !workload
        (String.concat ", " (List.map (fun w -> w.name) workloads));
      exit 2
  in
  let traced = !trace = 1 in
  let cores = Domain.recommended_domain_count () in
  let domains = if traced then max w.domains traced_domains else w.domains in
  if domains > cores then begin
    Printf.eprintf
      "refusing %s: it runs %d busy domains and this host has %d cores; \
       contention would be reported as a number\n"
      w.name domains cores;
    exit 3
  end;
  let out_dir = Filename.concat "perfbench" "out" in
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  let sock k = Filename.concat out_dir (Printf.sprintf "vyrdd-%d-%d.sock" (Unix.getpid ()) k) in
  let cfgs = choose_cfgs w ~seed:!seed in
  let timed_setup k =
    let t0 = now () in
    let c = setup w cfgs ~sock:(sock k) in
    (c, secs (now () - t0))
  in
  let ctx, first_setup_s = timed_setup 1 in
  let addr = Option.map Server.addr ctx.server in
  let metrics = Metrics.create () in
  let tl = tally () in
  let op = path_op w ~metrics ~addr tl in
  let hwm_reset = reset_hwm () in
  (* warm-up: one pass over the pool, verified like the rest *)
  let warm = run_phase ctx ~seconds:0. ~min_units:(Array.length ctx.units) (fun _ u -> op u) in
  Gc.full_major ();
  (* ten latencies beyond p90: Stats.beyond 100 0.9 = 10 *)
  let min_units = 100 in
  let main_seconds = if traced then !seconds /. 2. else !seconds in
  let gc0 = Gc.quick_stat () in
  let ph = run_phase ctx ~seconds:main_seconds ~min_units (fun _ u -> op u) in
  let gc1 = Gc.quick_stat () in
  let rss_mb = vmhwm_mb () in
  let evps = float_of_int ph.ev_total /. secs ph.wall_ns in
  let ref_ok = reference_sample w ctx in
  teardown ctx;
  let bugs = Array.fold_left (fun a u -> if u.bug then a + 1 else a) 0 ctx.units in
  (* Set-up runs again after the measured phase, so that its garbage does
     not enlarge the heap that phase runs on: at least seven set-ups in all,
     and more until a third of --seconds has passed, so that the samples
     see the host's drift over a span near the measured phase's rather
     than over the few seconds seven set-ups take.  setup_s is their
     median. *)
  let setup_times =
    if traced then [ first_setup_s ]
    else
      let stop = now () + int_of_float (!seconds /. 3. *. 1e9) in
      let rec more acc k =
        if k > 7 && now () >= stop then List.rev acc
        else begin
          Gc.full_major ();
          let c, dt = timed_setup k in
          teardown c;
          more (dt :: acc) (k + 1)
        end
      in
      first_setup_s :: more [] 2
  in
  let setups = List.length setup_times in
  let env extra =
    Printf.printf
      "env: {\"workload\":%S,\"seed\":%d,\"cores\":%d,\"ocaml\":%S,\"domains\":%d,\
       \"units\":%d,\"seeded_fault_units\":%d,\"setup_runs_s\":[%s],\"unit_runs\":%d,\
       \"measured_s\":%s,\"hwm_reset\":%b%s}\n"
      w.name !seed cores Sys.ocaml_version domains (Array.length ctx.units) bugs
      (String.concat "," (List.map json_num setup_times))
      ph.units_run (json_num (secs ph.wall_ns)) hwm_reset extra
  in
  if not traced then begin
    env "";
    let p q = Stats.percentile ph.latencies q in
    let n = ph.units_run in
    let note q = Printf.sprintf "n=%d, %d beyond" n (Stats.beyond n q) in
    print_result
      ~correct:(ph.failed = 0 && warm.failed = 0 && ref_ok)
      ~attempted:(warm.units_run + ph.units_run)
      ~failed:(warm.failed + ph.failed)
      [
        ("setup_s", Stats.median setup_times, "s", Printf.sprintf "median of %d set-ups" setups);
        ("events_per_s", evps, "ev/s", Printf.sprintf "%d events" ph.ev_total);
        ("latency_p50_ms", p 0.5, "ms", note 0.5);
        ("latency_p90_ms", p 0.9, "ms", note 0.9);
        ( "rss_peak_mb", rss_mb, "MB",
          if hwm_reset then "VmHWM of warm-up and measured phase" else "VmHWM, set-up included" );
      ]
  end
  else begin
    (* traced phase: a fresh registry and server, every layer spanned; the
       analyze probe's `Full twins are generated before it starts *)
    Array.iter (fun u -> ignore (Lazy.force u.full)) ctx.units;
    let tr = Trace.create ~clock:now () in
    let fm = Metrics.create () and sm = Metrics.create () in
    let server = start_server ~metrics:sm (sock 0) (fun l -> [ shard l ]) in
    let saddr = Server.addr server in
    let t = tally () in
    let path_ns = ref 0 and path_events = ref 0 in
    let traced_op i u =
      Trace.set_unit tr i;
      let t0 = now () in
      let ev, ok =
        Trace.with_span tr "unit" (fun () ->
            path_op ~tr w ~metrics:fm ~addr:(Some saddr) t u)
      in
      path_ns := !path_ns + (now () - t0);
      path_events := !path_events + ev;
      let probe name f = Trace.with_span tr ("probe." ^ name) f in
      let ok_online =
        w.path = Online || snd (probe "online" (fun () -> op_online ~tr ~metrics:fm t w.level u)) in
      let ok_service =
        w.path = Service || snd (probe "service" (fun () -> op_service ~tr t saddr w.level u)) in
      let ok_analyze =
        w.path = Analyze || snd (probe "analyze" (fun () -> op_analyze ~tr t u)) in
      let ok_checker = probe "checker" (fun () -> probe_checker ~tr t w.level u) in
      let ok_codec = probe "codec" (fun () -> probe_codec ~tr t u) in
      (ev, ok && ok_online && ok_service && ok_analyze && ok_checker && ok_codec)
    in
    let tp = run_phase ctx ~seconds:(!seconds /. 2.) ~min_units:10 traced_op in
    Server.stop server;
    let spans = Trace.spans tr in
    let spans_file =
      Filename.concat out_dir (Printf.sprintf "spans-%s-seed%d.jsonl" w.name !seed)
    in
    Trace.write spans_file spans;
    let selfs = Trace.self_times spans in
    let self_s name = secs (Trace.self_ns selfs name) in
    let per n d = if d = 0 then nan else float_of_int n /. float_of_int d in
    let p50_ms name =
      match Trace.durations spans name with
      | [] -> nan
      | ds -> Stats.median (List.map (fun d -> float_of_int d /. 1e6) ds)
    in
    let counter m name = Metrics.value (Metrics.counter m name) in
    let c = float_of_int in
    let ev = ph.ev_total in
    let traced_evps = c !path_events /. secs !path_ns in
    env (Printf.sprintf ",\"traced_unit_runs\":%d,\"spans\":%d,\"spans_file\":%S"
           tp.units_run (List.length spans) spans_file);
    let fed = counter fm "farm.events_fed" and skipped = counter fm "farm.events_skipped" in
    print_result
      ~correct:(ph.failed = 0 && warm.failed = 0 && tp.failed = 0 && ref_ok)
      ~attempted:(warm.units_run + ph.units_run + tp.units_run)
      ~failed:(warm.failed + ph.failed + tp.failed)
      [
        ("harness.busy_s", self_s "harness", "s", "self time");
        ("harness.events", c t.harness_events, "count", "");
        ("log.dropped", c t.log_dropped, "count", "");
        ("farm.feed_s", self_s "farm.feed", "s", "routing + waits on a full ring");
        ("farm.finish_wait_ms_p50", p50_ms "farm.finish", "ms", "drain lag");
        ("farm.queue_high_water", c (Metrics.gauge_value (Metrics.gauge fm "farm.high_water.composite")), "count", "");
        ("farm.events_fed", c fed, "count", "");
        ("farm.events_skipped", c skipped, "count", "");
        ("farm.skip_ratio", per skipped fed, "ratio", "skipped / fed");
        ("checker.ns_per_event", per (Trace.self_ns selfs "checker") t.checker_events, "ns", "");
        ("checker.methods_checked", c t.methods_checked, "count", "");
        ("checker.view_projections", c t.view_projections, "count", "");
        ("bincodec.encode_ns_per_event", per (Trace.self_ns selfs "bincodec.encode") t.codec_events, "ns", "");
        ("bincodec.decode_ns_per_event", per (Trace.self_ns selfs "bincodec.decode") t.codec_events, "ns", "");
        ("wire.frame_ns_per_batch", per (Trace.self_ns selfs "wire.frame") t.codec_batches, "ns", "");
        ("wire.bytes_per_event", per t.client_bytes t.client_events, "B", "Client.bytes_sent");
        ("client.connect_ms_p50", p50_ms "client.connect", "ms", "");
        ("client.send_s", self_s "client.send", "s", "incl. credit waits");
        ("client.finish_wait_ms_p50", p50_ms "client.finish", "ms", "");
        ("server.credits_granted", c (counter sm "net.credits_granted"), "count", "");
        ("server.batches", c (counter sm "net.batches"), "count", "");
        ("server.bytes_in", c (counter sm "net.bytes_in"), "B", "");
        ("server.sessions_failed", c (counter sm "net.sessions_failed"), "count", "");
        ("analysis.lint.busy_s", self_s "analysis.lint", "s", "");
        ("analysis.lockgraph.busy_s", self_s "analysis.lockgraph", "s", "");
        ("analysis.racedetect.busy_s", self_s "analysis.racedetect", "s", "");
        ("analysis.errors", c t.analysis_errors, "count", "");
        ("monitor.busy_s", self_s "monitor", "s", "");
        ("monitor.violations", c t.monitor_violations, "count", "");
        ("lin.feed_s", self_s "lin.feed", "s", "");
        ("lin.finish_s", self_s "lin.finish", "s", "");
        ("lin.nodes", c t.lin_nodes, "count", "");
        ("lin.undos", c t.lin_undos, "count", "");
        ("lin.memo_hits", c t.lin_memo_hits, "count", "");
        ("lin.nodes_per_op", per t.lin_nodes t.lin_ops, "ratio", "1.0 on the greedy path");
        ("gc.minor_words_per_event", (gc1.minor_words -. gc0.minor_words) /. c ev, "words", "untraced, main domain");
        ("gc.promoted_words_per_event", (gc1.promoted_words -. gc0.promoted_words) /. c ev, "words", "untraced, main domain");
        ("gc.major_collections", c (gc1.major_collections - gc0.major_collections), "count", "untraced");
        ("trace.untraced_events_per_s", evps, "ev/s", "path only");
        ("trace.events_per_s", traced_evps, "ev/s", "path only");
        ("trace.overhead_pct", 100. *. (evps -. traced_evps) /. evps, "%", "");
        ("trace.spans", c (List.length spans), "count", "");
      ]
  end
