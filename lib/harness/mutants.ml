(* Detection-matrix engine for the seeded refinement-violation mutants of
   lib/faults.

   For each registered fault the engine arms it, drives the hosting subject
   under three regimes — deterministic coop schedules (seed sweep), native
   stress (real threads), and bounded systematic exploration — and records
   whether the checker reports a violation, after how many runs/schedules,
   and how many methods it had checked when it fired (the paper's Table 1
   time-to-detection unit).  Ground truth for the monitor: every mutant must
   light up somewhere deterministic, and the unmutated subjects must stay
   dark under the same seeds. *)

open Vyrd
module Faults = Vyrd_faults.Faults
module Sched = Vyrd_sched.Sched
module Prng = Vyrd_sched.Prng
module Explore = Vyrd_sched.Explore
module Coop = Vyrd_sched.Coop
module Lockgraph = Vyrd_analysis.Lockgraph
module Lin = Vyrd_lin.Backend
module Monitor = Vyrd_monitor.Monitor

type cell = {
  regime : string;  (* "coop" | "native" | "explore" *)
  mode : string;  (* "io" | "view" | "race" *)
  detected : bool;
  runs : int;  (* seeds swept / native retries / schedules executed *)
  methods_checked : int option;  (* of the first detecting report *)
  tag : string option;  (* Report.tag of the detecting violation *)
}

type row = { fault : Faults.t; subject : Subjects.t; cells : cell list }

type config = {
  threads : int;
  ops : int;  (* per thread, coop + native regimes *)
  seeds : int;  (* coop seed-sweep budget *)
  race_seeds : int;  (* coop sweep budget for the happens-before channel *)
  native_runs : int;
  explore_fibers : int;
  explore_ops : int;  (* per fiber, explore regime *)
  explore_opseeds : int;  (* operation mixes tried before giving up *)
  explore_budget : int;  (* schedules per operation mix *)
  preemption_bound : int;
  lin_seeds : int;  (* coop sweep budget for the linearizability channel *)
  lin_budget : int;  (* JIT node budget per history *)
}

let quick =
  {
    threads = 4;
    ops = 25;
    seeds = 80;
    race_seeds = 20;
    native_runs = 8;
    explore_fibers = 2;
    explore_ops = 3;
    explore_opseeds = 5;
    explore_budget = 3_000;
    preemption_bound = 2;
    lin_seeds = 40;
    lin_budget = 500_000;
  }

let full =
  {
    threads = 5;
    ops = 30;
    seeds = 250;
    race_seeds = 60;
    native_runs = 30;
    explore_fibers = 2;
    explore_ops = 4;
    explore_opseeds = 8;
    explore_budget = 20_000;
    preemption_bound = 2;
    lin_seeds = 120;
    lin_budget = 2_000_000;
  }

(* Some injection sites need a deeper workload before they are reachable at
   all: a torn B-link split requires enough inserts of enough distinct keys
   to overflow an order-4 leaf, which the default 4-key contention pool can
   never do.  Returns (ops per fiber, key range). *)
let explore_tuning cfg fault =
  match Faults.name fault with
  | "blink_tree.torn_split" -> (max cfg.explore_ops 8, 12)
  | _ -> (cfg.explore_ops, 4)

let check_mode ~mode (s : Subjects.t) log =
  match mode with
  | `Io -> Checker.check ~mode:`Io log s.spec
  | `View -> Checker.check ~mode:`View ~view:s.view ~invariants:s.invariants log s.spec

let cell ~regime ~mode ~runs = function
  | None -> { regime; mode; detected = false; runs; methods_checked = None; tag = None }
  | Some (r : Report.t) ->
    {
      regime;
      mode;
      detected = true;
      runs;
      methods_checked = Some r.Report.stats.methods_checked;
      tag = Some (Report.tag r);
    }

(* --- deterministic coop schedules: the seed sweep of bench table1 -------- *)

let harness_cfg cfg seed =
  {
    Harness.default with
    threads = cfg.threads;
    ops_per_thread = cfg.ops;
    key_pool = 12;
    key_range = 16;
    seed;
  }

let coop_cells cfg (s : Subjects.t) =
  let io = ref None and view = ref None in
  let io_runs = ref 0 and view_runs = ref 0 in
  let seed = ref 0 in
  while (!io = None || !view = None) && !seed < cfg.seeds do
    let log = Harness.run (harness_cfg cfg !seed) (s.build ~bug:false) in
    (if !io = None then begin
       incr io_runs;
       let r = check_mode ~mode:`Io s log in
       if not (Report.is_pass r) then io := Some r
     end);
    (if !view = None then begin
       incr view_runs;
       let r = check_mode ~mode:`View s log in
       if not (Report.is_pass r) then view := Some r
     end);
    incr seed
  done;
  [
    cell ~regime:"coop" ~mode:"io" ~runs:!io_runs !io;
    cell ~regime:"coop" ~mode:"view" ~runs:!view_runs !view;
  ]

(* --- happens-before race channel ------------------------------------------ *)

(* Third, independent detection channel: a FastTrack pass over `Full-level
   logs of the armed subject.  Differential against the unarmed subject on
   the same seed, because some subjects (the B-link tree's optimistic
   lock-free reads) report happens-before races even when correct — only a
   racy variable that the baseline run does NOT report counts as detecting
   the mutant.  Annotation bugs (a misplaced commit) are invisible to this
   channel by construction; that asymmetry is the point of recording it. *)
let race_cell cfg fault (s : Subjects.t) =
  let full_log seed =
    Harness.run
      { (harness_cfg cfg seed) with log_level = `Full }
      (s.build ~bug:false)
  in
  let racy_vars seed =
    (Vyrd_analysis.Racedetect.analyze (full_log seed)).Vyrd_analysis.Racedetect
      .racy_vars
  in
  let baseline_racy_vars seed =
    (* run_fault calls us under with_armed, which restores state on exit *)
    Faults.disarm fault;
    Fun.protect ~finally:(fun () -> Faults.arm fault) (fun () -> racy_vars seed)
  in
  let found = ref None and runs = ref 0 in
  let seed = ref 0 in
  while !found = None && !seed < cfg.race_seeds do
    incr runs;
    (match racy_vars !seed with
    | [] -> ()
    | armed ->
      let baseline = baseline_racy_vars !seed in
      (match List.filter (fun v -> not (List.mem v baseline)) armed with
      | fresh :: _ -> found := Some fresh
      | [] -> ()));
    incr seed
  done;
  {
    regime = "coop";
    mode = "race";
    detected = !found <> None;
    runs = !runs;
    methods_checked = None;
    tag = !found;
  }

(* --- annotation-free linearizability channel ------------------------------ *)

(* Fourth independent channel: the JIT linearizability backend over the coop
   seed sweep, reading only calls and returns — no commit annotations, no
   logged writes.  Semantic mutants (a lost update, a stale write-back, a
   torn split) corrupt the call/return history itself and must be convicted
   here too; annotation and instrumentation mutants leave the implementation
   behavior correct and are invisible by construction.  Measuring exactly
   that asymmetry — what the commit annotations buy, and what they cost —
   is the point of the column. *)
let lin_cell ?(budget_seeds = None) cfg (s : Subjects.t) =
  let specs = [ (s.Subjects.name, s.Subjects.spec) ] in
  let max_seeds = Option.value ~default:cfg.lin_seeds budget_seeds in
  let found = ref None and runs = ref 0 in
  let seed = ref 0 in
  while !found = None && !seed < max_seeds do
    incr runs;
    let log = Harness.run (harness_cfg cfg !seed) (s.build ~bug:false) in
    let r = Lin.check_log ~budget:cfg.lin_budget ~specs log in
    (match Lin.violations r with
    | v :: _ -> found := Some v
    | [] -> ());
    incr seed
  done;
  match !found with
  | Some v ->
    {
      regime = "coop";
      mode = "lin";
      detected = true;
      runs = !runs;
      methods_checked = Some v.Lin.ls_ops;
      tag =
        Some
          (Printf.sprintf "not-linearizable nodes=%d"
             v.Lin.ls_stats.Vyrd_lin.Jit.nodes);
    }
  | None ->
    { regime = "coop"; mode = "lin"; detected = false; runs = !runs;
      methods_checked = None; tag = None }

(* --- native stress: real threads, inherently non-deterministic ----------- *)

let native_cell cfg (s : Subjects.t) =
  let found = ref None and runs = ref 0 in
  while !found = None && !runs < cfg.native_runs do
    incr runs;
    let log = Harness.run ~native:true (harness_cfg cfg !runs) (s.build ~bug:false) in
    let r = check_mode ~mode:`View s log in
    if not (Report.is_pass r) then found := Some r
  done;
  cell ~regime:"native" ~mode:"view" ~runs:!runs !found

(* --- bounded systematic exploration -------------------------------------- *)

(* A tiny contended scenario: [explore_fibers] fibers each issue
   [explore_ops] operations drawn from the subject's own mix over a 4-key
   pool, the subject's daemon running alongside; every completed schedule is
   checked in `View mode.  The operation mix is fixed per [opseed], so a
   detection is a deterministic certificate; several mixes are tried because
   a mix without the triggering operation can never reach the bug. *)
let explore_scenario cfg ~ops ~keyrange ~opseed (s : Subjects.t) ~on_log () =
  let log = Log.create ~level:`View () in
  let finished = ref 0 in
  fun (sched : Sched.t) ->
    let ctx = Instrument.make sched log in
    let b = s.build ~bug:false ctx in
    let stop = ref false in
    (match b.Harness.daemon with
    | Some step ->
      (* Bounded, unlike the free-running harness daemon: under the
         explorer's deterministic default policy an unbounded loop would
         monopolize the run queue and livelock the schedule. *)
      let budget = ref (4 + (4 * cfg.explore_fibers * ops)) in
      sched.Sched.spawn (fun () ->
          while (not !stop) && !budget > 0 do
            decr budget;
            step ();
            sched.Sched.yield ()
          done)
    | None -> ());
    for t = 1 to cfg.explore_fibers do
      sched.Sched.spawn (fun () ->
          let rng = Prng.create ((opseed * 613) + (31 * t)) in
          for _ = 1 to ops do
            b.Harness.random_op rng (1 + Prng.int rng keyrange)
          done;
          incr finished;
          if !finished = cfg.explore_fibers then begin
            stop := true;
            on_log log
          end)
    done

let explore_cell cfg fault (s : Subjects.t) =
  let ops, keyrange = explore_tuning cfg fault in
  let found = ref None and schedules = ref 0 in
  let opseed = ref 0 in
  while !found = None && !opseed < cfg.explore_opseeds do
    let on_log log =
      if !found = None then begin
        let r = check_mode ~mode:`View s log in
        if not (Report.is_pass r) then found := Some r
      end
    in
    (* A mutant may make some schedule spin without progress (e.g. a reader
       chasing the unreachable half of a torn split); treat a livelocked
       exploration as "nothing found under this mix" rather than aborting
       the whole matrix. *)
    (match
       Explore.explore ~max_schedules:cfg.explore_budget
         ~preemption_bound:cfg.preemption_bound
         ~stop:(fun () -> !found <> None)
         (explore_scenario cfg ~ops ~keyrange ~opseed:!opseed s ~on_log)
     with
    | r -> schedules := !schedules + r.Explore.schedules
    | exception Vyrd_sched.Coop.Livelock _ -> ());
    incr opseed
  done;
  cell ~regime:"explore" ~mode:"view" ~runs:!schedules !found

(* --- lock-order channel: Deadlock and Benign kinds ------------------------ *)

(* Sweep coop seeds at `Full level and run the lock-order graph over every
   schedule that completes; count the schedules that genuinely hang.  The
   [lockgraph/cycle] cell is differential like the race channel: only a
   reported cycle that the disarmed subject (same seed) does NOT show counts.
   For [Deadlock] mutants the sweep keeps going until it has also seen a
   real hang (or the budget runs out) — the coop/deadlock cell is evidence
   that the flagged order is not a phantom.  For [Benign] mutants a short
   sweep suffices: every analyzed trace must come back clean, and no seed
   may hang. *)
let lockorder_cells cfg fault (s : Subjects.t) =
  let full_log seed =
    Harness.run
      { (harness_cfg cfg seed) with log_level = `Full }
      (s.build ~bug:false)
  in
  let baseline_has_cycle seed =
    (* we run under with_armed, which restores the armed state on exit *)
    Faults.disarm fault;
    Fun.protect
      ~finally:(fun () -> Faults.arm fault)
      (fun () ->
        match full_log seed with
        | log -> not (Lockgraph.ok (Lockgraph.analyze log))
        | exception Coop.Deadlock _ -> true)
  in
  let want_deadlock = Faults.kind fault = Faults.Deadlock in
  let budget = if want_deadlock then cfg.seeds else min cfg.seeds 12 in
  let cycle = ref None and analyzed = ref 0 in
  let deadlocks = ref 0 and runs = ref 0 and hang_seed = ref None in
  let seed = ref 0 in
  while
    (!cycle = None || (want_deadlock && !deadlocks = 0)) && !seed < budget
  do
    incr runs;
    (match full_log !seed with
    | exception Coop.Deadlock _ ->
      incr deadlocks;
      if !hang_seed = None then hang_seed := Some !seed
    | log ->
      incr analyzed;
      if !cycle = None then begin
        let r = Lockgraph.analyze log in
        if (not (Lockgraph.ok r)) && not (baseline_has_cycle !seed) then
          cycle := Some (String.concat "->" (Lockgraph.cyclic_locks r))
      end);
    incr seed
  done;
  [
    {
      regime = "lockgraph";
      mode = "cycle";
      detected = !cycle <> None;
      runs = !analyzed;
      methods_checked = None;
      tag = !cycle;
    };
    {
      regime = "coop";
      mode = "deadlock";
      detected = !deadlocks > 0;
      runs = !runs;
      methods_checked = None;
      tag = Option.map (Printf.sprintf "seed=%d") !hang_seed;
    };
  ]

(* Systematic certificate for the hang: bounded exploration of the tiny
   contended scenario, counting schedules that end in {!Coop.Deadlock}. *)
let explore_deadlock_cell cfg fault (s : Subjects.t) =
  let ops, keyrange = explore_tuning cfg fault in
  let total = ref 0 and hangs = ref 0 in
  let opseed = ref 0 in
  while !hangs = 0 && !opseed < cfg.explore_opseeds do
    (match
       Explore.explore ~max_schedules:cfg.explore_budget
         ~preemption_bound:cfg.preemption_bound
         (explore_scenario cfg ~ops ~keyrange ~opseed:!opseed s
            ~on_log:(fun _ -> ()))
     with
    | r ->
      total := !total + r.Explore.schedules;
      hangs := !hangs + r.Explore.deadlocks
    | exception Coop.Livelock _ -> ());
    incr opseed
  done;
  {
    regime = "explore";
    mode = "deadlock";
    detected = !hangs > 0;
    runs = !total;
    methods_checked = None;
    tag = (if !hangs > 0 then Some (Printf.sprintf "hangs=%d" !hangs) else None);
  }

(* --- temporal-monitor channel: Deadlock, Benign and Leak kinds ------------ *)

(* Fifth independent channel: the built-in temporal monitors (lock reversal,
   resource leak) over `Full coop traces that complete.  Differential like
   the race and lockgraph channels: only an armed-only violation counts.
   Deadlock mutants must fall to the lock-reversal monitor — the dynamic
   twin of the lockgraph column; Benign mutants must stay silent (the
   monitor carries the same gate suppression); Leak mutants must fall to
   the resource-leak monitor's end-of-stream resolution. *)
let monitor_cell cfg fault (s : Subjects.t) =
  let full_log seed =
    Harness.run
      { (harness_cfg cfg seed) with log_level = `Full }
      (s.build ~bug:false)
  in
  let monitor_violations log =
    let ms = Monitor.builtins () in
    Log.iter (fun ev -> List.iter (fun m -> Monitor.feed m ev) ms) log;
    List.filter_map
      (fun m ->
        match Monitor.finish m with
        | Monitor.Viol w -> Some (Monitor.name m, w)
        | Monitor.Sat | Monitor.Pending -> None)
      ms
  in
  let baseline_names seed =
    (* run_fault calls us under with_armed, which restores state on exit *)
    Faults.disarm fault;
    Fun.protect
      ~finally:(fun () -> Faults.arm fault)
      (fun () ->
        match full_log seed with
        | log -> List.map fst (monitor_violations log)
        | exception Coop.Deadlock _ -> [])
  in
  let budget =
    match Faults.kind fault with
    | Faults.Benign -> min cfg.seeds 12
    | _ -> cfg.seeds
  in
  let found = ref None and analyzed = ref 0 in
  let seed = ref 0 in
  while !found = None && !seed < budget do
    (match full_log !seed with
    | exception Coop.Deadlock _ -> ()
    | log ->
      incr analyzed;
      (match monitor_violations log with
      | [] -> ()
      | vs -> (
        let base = baseline_names !seed in
        match List.filter (fun (n, _) -> not (List.mem n base)) vs with
        | (n, w) :: _ ->
          found := Some (Printf.sprintf "%s@%d" n w.Monitor.at)
        | [] -> ())));
    incr seed
  done;
  {
    regime = "coop";
    mode = "monitor";
    detected = !found <> None;
    runs = !analyzed;
    methods_checked = None;
    tag = !found;
  }

(* Benign mutants must also keep refining: a short armed `View sweep in
   which any violation is a (forbidden) detection. *)
let benign_view_cell cfg (s : Subjects.t) =
  let found = ref None and runs = ref 0 in
  let seed = ref 0 in
  while !found = None && !seed < min cfg.seeds 10 do
    incr runs;
    let log = Harness.run (harness_cfg cfg !seed) (s.build ~bug:false) in
    let r = check_mode ~mode:`View s log in
    if not (Report.is_pass r) then found := Some r;
    incr seed
  done;
  cell ~regime:"coop" ~mode:"view" ~runs:!runs !found

(* --- per-fault orchestration --------------------------------------------- *)

let run_fault cfg fault =
  let subject = Subjects.find (Faults.subject fault) in
  Faults.with_armed fault (fun () ->
      let cells =
        match Faults.kind fault with
        | Faults.Refinement ->
          coop_cells cfg subject
          @ [
              race_cell cfg fault subject;
              lin_cell cfg subject;
              native_cell cfg subject;
              explore_cell cfg fault subject;
            ]
        | Faults.Deadlock ->
          lockorder_cells cfg fault subject
          @ [
              explore_deadlock_cell cfg fault subject;
              monitor_cell cfg fault subject;
            ]
        | Faults.Benign ->
          lockorder_cells cfg fault subject
          @ [
              benign_view_cell cfg subject;
              lin_cell ~budget_seeds:(Some (min cfg.lin_seeds 10)) cfg subject;
              monitor_cell cfg fault subject;
            ]
        | Faults.Leak ->
          (* armed runs must stay correct under refinement; only the
             resource-leak monitor may (and must) convict *)
          [ monitor_cell cfg fault subject; benign_view_cell cfg subject ]
      in
      { fault; subject; cells })

let run_all cfg = List.map (run_fault cfg) (Faults.registered ())

let find_cell row ~regime ~mode =
  List.find_opt (fun c -> c.regime = regime && c.mode = mode) row.cells

(* A mutant counts as provably detectable only under a regime whose runs are
   pure functions of recorded seeds: coop or explore, never native. *)
let deterministic_view_detection row =
  List.exists
    (fun c -> c.mode = "view" && c.detected && (c.regime = "coop" || c.regime = "explore"))
    row.cells

(* The happens-before channel fired: the armed run shows a racy variable the
   unarmed run does not.  Independent of refinement checking — annotation
   bugs never light it up, lock-discipline bugs always should. *)
let race_detection row =
  List.exists (fun c -> c.mode = "race" && c.detected) row.cells

(* The annotation-free linearizability backend convicted some coop-seed
   history on calls and returns alone. *)
let lin_detection row =
  List.exists (fun c -> c.mode = "lin" && c.detected) row.cells

(* The lock-order graph flagged an armed-only cycle from a completed trace. *)
let lockgraph_detection row =
  List.exists (fun c -> c.regime = "lockgraph" && c.detected) row.cells

(* Some schedule genuinely hung — under the coop seed sweep or under bounded
   exploration. *)
let deadlock_detection row =
  List.exists (fun c -> c.mode = "deadlock" && c.detected) row.cells

(* A built-in temporal monitor convicted an armed-only completed trace. *)
let monitor_detection row =
  List.exists (fun c -> c.mode = "monitor" && c.detected) row.cells

(* Kind-aware ground truth: what each mutant's row must show for the
   registry to count as validated. *)
let expected_detections_hold row =
  match Faults.kind row.fault with
  | Faults.Refinement ->
    (* semantic mutants must also fall to the annotation-free backend;
       annotation/instrumentation mutants must NOT (a lin conviction of a
       behaviorally-correct implementation would be a false positive) *)
    deterministic_view_detection row
    && lin_detection row = Faults.semantic row.fault
  | Faults.Deadlock ->
    (* static and dynamic lock-order analyses must both convict, and some
       schedule must genuinely hang *)
    lockgraph_detection row && deadlock_detection row && monitor_detection row
  | Faults.Benign -> not (List.exists (fun c -> c.detected) row.cells)
  | Faults.Leak ->
    (* only the temporal monitor sees it; refinement must stay clean *)
    monitor_detection row
    && not (List.exists (fun c -> c.mode = "view" && c.detected) row.cells)

(* Table 1's headline inequality, on ground truth: view refinement needs no
   more checked methods than I/O refinement (which may miss outright). *)
let view_beats_io row =
  match (find_cell row ~regime:"coop" ~mode:"view", find_cell row ~regime:"coop" ~mode:"io") with
  | Some v, Some io when v.detected -> (
    (not io.detected)
    || match (v.methods_checked, io.methods_checked) with
       | Some mv, Some mio -> mv <= mio
       | _ -> false)
  | _ -> false

(* --- rendering ------------------------------------------------------------ *)

let pp_cell ppf c =
  if c.detected then
    Fmt.pf ppf "%s %ar=%d"
      (Option.value ~default:"?" c.tag)
      Fmt.(option (fun ppf m -> pf ppf "m=%d " m))
      c.methods_checked c.runs
  else Fmt.pf ppf "miss(%d)" c.runs

let pp_matrix ppf rows =
  let line = String.make 222 '-' in
  Fmt.pf ppf
    "%-32s %-22s %-9s %-18s %-18s %-18s %-24s %-18s %-18s %-18s %-18s %-20s@."
    "fault" "subject" "kind" "coop/io" "coop/view" "coop/race" "coop/lin"
    "native/view" "explore/view" "lockgraph" "deadlock" "coop/monitor";
  Fmt.pf ppf "%s@." line;
  List.iter
    (fun row ->
      let c regime mode =
        match find_cell row ~regime ~mode with
        | Some c -> Fmt.str "%a" pp_cell c
        | None -> "-"
      in
      (* one deadlock column covering both regimes: the first cell that saw
         a hang, or the combined miss count *)
      let deadlock_col =
        match List.filter (fun c -> c.mode = "deadlock") row.cells with
        | [] -> "-"
        | cells -> (
          match List.find_opt (fun c -> c.detected) cells with
          | Some c ->
            Fmt.str "%s/%s r=%d" c.regime
              (Option.value ~default:"hang" c.tag)
              c.runs
          | None ->
            Fmt.str "miss(%d)"
              (List.fold_left (fun acc c -> acc + c.runs) 0 cells))
      in
      Fmt.pf ppf
        "%-32s %-22s %-9s %-18s %-18s %-18s %-24s %-18s %-18s %-18s %-18s %-20s@."
        (Faults.name row.fault) row.subject.Subjects.name
        (Faults.kind_id (Faults.kind row.fault))
        (c "coop" "io") (c "coop" "view") (c "coop" "race") (c "coop" "lin")
        (c "native" "view") (c "explore" "view") (c "lockgraph" "cycle")
        deadlock_col (c "coop" "monitor"))
    rows;
  Fmt.pf ppf "%s@." line;
  Fmt.pf ppf
    "(m = methods checked when the violation fired — Table 1's unit; r = \
     runs/schedules until detection; miss(n) = undetected after n; the race \
     column is the differential happens-before channel: armed-only racy \
     variable, or miss; lin = the annotation-free JIT linearizability \
     backend over calls/returns only — annotation and instrumentation \
     mutants must miss here, semantic ones must not; lockgraph = armed-only \
     lock-order cycle over `Full traces; deadlock = schedules that \
     genuinely hung; monitor = armed-only temporal-monitor violation \
     (lock reversal / resource leak) on a completed `Full trace — benign \
     mutants must show miss in every column)@."

let to_json rows =
  let b = Buffer.create 4096 in
  let cell_json c =
    Printf.sprintf
      "{\"regime\":\"%s\",\"mode\":\"%s\",\"detected\":%b,\"runs\":%d,\
       \"methods_checked\":%s,\"violation\":%s}"
      c.regime c.mode c.detected c.runs
      (match c.methods_checked with Some m -> string_of_int m | None -> "null")
      (match c.tag with
      | Some t -> Printf.sprintf "\"%s\"" (Vyrd_pipeline.Metrics.json_escape t)
      | None -> "null")
  in
  Buffer.add_string b "{\n  \"detection_matrix\": [\n";
  List.iteri
    (fun i row ->
      if i > 0 then Buffer.add_string b ",\n";
      Buffer.add_string b
        (Printf.sprintf
           "    {\"fault\":\"%s\",\"subject\":\"%s\",\"kind\":\"%s\",\
            \"semantic\":%b,\"description\":\"%s\",\n\
           \     \"deterministic_view_detection\":%b,\"view_beats_io\":%b,\
            \"race_detection\":%b,\"lin_detection\":%b,\n\
           \     \"lockgraph_detection\":%b,\"deadlock_detection\":%b,\
            \"monitor_detection\":%b,\"expected_detections_hold\":%b,\n\
           \     \"cells\":[%s]}"
           (Vyrd_pipeline.Metrics.json_escape (Faults.name row.fault))
           (Vyrd_pipeline.Metrics.json_escape row.subject.Subjects.name)
           (Faults.kind_id (Faults.kind row.fault))
           (Faults.semantic row.fault)
           (Vyrd_pipeline.Metrics.json_escape (Faults.description row.fault))
           (deterministic_view_detection row) (view_beats_io row)
           (race_detection row) (lin_detection row) (lockgraph_detection row)
           (deadlock_detection row) (monitor_detection row)
           (expected_detections_hold row)
           (String.concat "," (List.map cell_json row.cells))))
    rows;
  Buffer.add_string b "\n  ]\n}\n";
  Buffer.contents b
