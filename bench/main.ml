(* Benchmark harness regenerating the paper's evaluation (PLDI 2005, §7):

     Table 1  time to detection of error (methods checked before the first
              refinement violation), I/O vs view refinement
     Table 2  overhead of logging (program alone / I/O-level / view-level)
     Table 3  running-time breakdown (program alone / + logging /
              + logging and online VYRD / VYRD alone offline)

   plus ablations and baselines:

     ablation-incremental  full vs keyed (incremental) view computation (§6.4)
     ablation-naive        naive serialization enumeration vs commit-order
                           witness (§2's "4! ways")
     baseline-atomizer     Lipton-reduction atomicity vs refinement (§8)

   Absolute numbers are not comparable to the paper's 2005 hardware; the
   shapes (who wins, by roughly what factor) are what EXPERIMENTS.md tracks.

     dune exec bench/main.exe              # everything
     dune exec bench/main.exe -- table1    # one experiment
*)

open Vyrd
open Vyrd_harness
module Prng = Vyrd_sched.Prng

(* ---------------------------------------------------------------- timing *)

(* One Bechamel measurement: estimated wall-clock nanoseconds per run. *)
let measure_ns ?(quota = 0.6) name f =
  let open Bechamel in
  let test = Test.make ~name (Staged.stage f) in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second quota) ~stabilize:false ()
  in
  let raw = Benchmark.all cfg [ Toolkit.Instance.monotonic_clock ] test in
  let ols =
    Analyze.all
      (Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| "run" |])
      Toolkit.Instance.monotonic_clock raw
  in
  match Hashtbl.fold (fun _ v acc -> v :: acc) ols [] with
  | [ est ] -> (
    match Analyze.OLS.estimates est with
    | Some [ ns ] -> ns
    | Some _ | None -> nan)
  | _ -> nan

let pp_ms ppf ns =
  if Float.is_nan ns then Fmt.string ppf "-" else Fmt.pf ppf "%.2f" (ns /. 1e6)

let line width = String.make width '-'

(* ------------------------------------------------------------- Table 1 *)

let run_buggy (s : Subjects.t) ~threads ~ops ~seed =
  Harness.run
    { Harness.default with threads; ops_per_thread = ops; key_pool = 12; key_range = 16; seed }
    (s.build ~bug:true)

(* Sweep seeds; collect methods-to-detection for each refinement mode on
   seeds where the respective mode detects the bug, plus total checking CPU
   time for the view/io cost ratio. *)
let table1_row (s : Subjects.t) ~threads ~ops ~max_seeds ~want =
  let io_hits = ref 0
  and io_methods = ref 0
  and view_hits = ref 0
  and view_methods = ref 0
  and io_cpu = ref 0.
  and view_cpu = ref 0.
  and runs = ref 0 in
  let seed = ref 0 in
  while !view_hits < want && !seed < max_seeds do
    let log = run_buggy s ~threads ~ops ~seed:!seed in
    incr runs;
    let t0 = Sys.time () in
    let io = Checker.check ~mode:`Io log s.spec in
    let t1 = Sys.time () in
    let view = Checker.check ~mode:`View ~view:s.view log s.spec in
    let t2 = Sys.time () in
    io_cpu := !io_cpu +. (t1 -. t0);
    view_cpu := !view_cpu +. (t2 -. t1);
    (if not (Report.is_pass io) then begin
       incr io_hits;
       io_methods := !io_methods + io.Report.stats.methods_checked
     end);
    if not (Report.is_pass view) then begin
      incr view_hits;
      view_methods := !view_methods + view.Report.stats.methods_checked
    end;
    incr seed
  done;
  let avg hits total = if hits = 0 then nan else float_of_int total /. float_of_int hits in
  ( avg !io_hits !io_methods,
    !io_hits,
    avg !view_hits !view_methods,
    !view_hits,
    (if !io_cpu > 0. then !view_cpu /. !io_cpu else nan),
    !runs )

let pp_avg ppf v = if Float.is_nan v then Fmt.string ppf "-" else Fmt.pf ppf "%.0f" v

let table1 () =
  Fmt.pr "@.Table 1: time to detection of error@.";
  Fmt.pr "(average number of methods checked before the first violation;@.";
  Fmt.pr " detections / buggy runs in parentheses; CPU ratio = view/io checking time)@.@.";
  Fmt.pr "%-22s %-46s %5s  %18s %18s %9s@." "Program" "Error" "#Thrd" "#Mthds to-detect"
    "#Mthds to-detect" "CPU";
  Fmt.pr "%-22s %-46s %5s  %18s %18s %9s@." "" "" "" "I/O refinement" "view refinement"
    "ratio";
  Fmt.pr "%s@." (line 124);
  let subjects =
    [ Subjects.multiset_vector; Subjects.multiset_btree; Subjects.jvector;
      Subjects.string_buffer; Subjects.blink_tree; Subjects.cache; Subjects.scanfs ]
  in
  List.iter
    (fun (s : Subjects.t) ->
      List.iteri
        (fun i threads ->
          let io_avg, io_hits, view_avg, view_hits, ratio, runs =
            table1_row s ~threads ~ops:30 ~max_seeds:250 ~want:12
          in
          let cell avg hits =
            Fmt.str "%a (%d/%d)" pp_avg avg hits runs
          in
          Fmt.pr "%-22s %-46s %5d  %18s %18s %9s@."
            (if i = 0 then s.name else "")
            (if i = 0 then s.bug_description else "")
            threads (cell io_avg io_hits) (cell view_avg view_hits)
            (if Float.is_nan ratio then "-" else Printf.sprintf "%.2f" ratio))
        [ 4; 8; 16; 32 ];
      Fmt.pr "%s@." (line 124))
    subjects;
  Fmt.pr
    "@.Shape check vs the paper: view refinement detects state-corrupting bugs@.\
     (FindSlot, BinaryTree, BLinkTree, Cache, ScanFS, StringBuffer) in far fewer@.\
     methods than I/O refinement; the Vector bug lives in an observer, so view@.\
     refinement is no better there (§7.5).@."

(* ------------------------------------------------------------- Table 2 *)

let table2 () =
  Fmt.pr "@.Table 2: overhead of logging (ms per workload; %d threads x %d calls)@.@."
    8 80;
  let cfg level seed =
    { Harness.threads = 8; ops_per_thread = 80; key_pool = 12; key_range = 32;
      seed; log_level = level }
  in
  Fmt.pr "%-22s %12s %12s %12s %10s %10s@." "Implementation" "Prog. alone"
    "I/O logging" "View logging" "io ovh" "view ovh";
  Fmt.pr "%s@." (line 84);
  List.iter
    (fun (s : Subjects.t) ->
      let time level =
        measure_ns
          (s.name ^ "/table2")
          (fun () -> ignore (Harness.run (cfg level 1) (s.build ~bug:false)))
      in
      let plain = time `None in
      let io = time `Io in
      let view = time `View in
      Fmt.pr "%-22s %12s %12s %12s %9.2fx %9.2fx@." s.name (Fmt.str "%a" pp_ms plain)
        (Fmt.str "%a" pp_ms io) (Fmt.str "%a" pp_ms view) (io /. plain) (view /. plain))
    Subjects.all;
  Fmt.pr
    "@.Shape check vs the paper: view-level logging costs visibly more than@.\
     I/O-level logging for subjects whose mutators perform many shared writes@.\
     (multisets, Cache, ScanFS) and little more for the others (Table 2).@."

(* ------------------------------------------------------------- Table 3 *)

let table3 () =
  Fmt.pr "@.Table 3: running time breakdown (ms per workload; %d threads x %d calls)@.@."
    8 80;
  let cfg level seed =
    { Harness.threads = 8; ops_per_thread = 80; key_pool = 12; key_range = 32;
      seed; log_level = level }
  in
  Fmt.pr "%-22s %12s %12s %16s %14s@." "Program" "Prog. alone" "Prog.+logging"
    "Prog.+log+VYRD" "VYRD offline";
  Fmt.pr "%s@." (line 84);
  let subjects =
    [ Subjects.jvector; Subjects.string_buffer; Subjects.blink_tree; Subjects.cache;
      Subjects.scanfs ]
  in
  List.iter
    (fun (s : Subjects.t) ->
      let alone =
        measure_ns (s.name ^ "/alone") (fun () ->
            ignore (Harness.run (cfg `None 1) (s.build ~bug:false)))
      in
      let logged =
        measure_ns (s.name ^ "/logged") (fun () ->
            ignore (Harness.run (cfg `View 1) (s.build ~bug:false)))
      in
      let online =
        measure_ns ~quota:0.8 (s.name ^ "/online") (fun () ->
            let log = Log.create ~level:`View () in
            let farm =
              Vyrd_pipeline.Farm.start ~level:`View
                [ Vyrd_pipeline.Farm.shard ~mode:`View ~view:s.view s.name s.spec ]
            in
            Vyrd_pipeline.Farm.attach farm log;
            Vyrd_sched.Coop.run ~seed:1 ~max_steps:200_000_000 (fun sched ->
                let ctx = Instrument.make sched log in
                let b = (s.build ~bug:false) ctx in
                let stop = ref false in
                (match b.Harness.daemon with
                | Some step ->
                  sched.Vyrd_sched.Sched.spawn (fun () ->
                      while not !stop do
                        step ();
                        sched.Vyrd_sched.Sched.yield ()
                      done)
                | None -> ());
                let remaining = ref 8 in
                for t = 1 to 8 do
                  sched.Vyrd_sched.Sched.spawn (fun () ->
                      let rng = Prng.create ((1 * 7919) + t) in
                      for _ = 1 to 80 do
                        b.Harness.random_op rng (Prng.int rng 32)
                      done;
                      decr remaining;
                      if !remaining = 0 then stop := true)
                done);
            ignore (Vyrd_pipeline.Farm.finish farm))
      in
      let recorded = Harness.run (cfg `View 1) (s.build ~bug:false) in
      let offline =
        measure_ns (s.name ^ "/offline") (fun () ->
            ignore (Checker.check ~mode:`View ~view:s.view recorded s.spec))
      in
      Fmt.pr "%-22s %12s %12s %16s %14s@." s.name (Fmt.str "%a" pp_ms alone)
        (Fmt.str "%a" pp_ms logged) (Fmt.str "%a" pp_ms online)
        (Fmt.str "%a" pp_ms offline))
    subjects;
  Fmt.pr
    "@.Shape check vs the paper: logging alone keeps the instrumented run close@.\
     to the native run; adding the online verification thread costs more but@.\
     stays within a small factor; offline checking is comparable to the@.\
     original execution (Table 3).@."

(* -------------------------------------------------- ablation: §6.4 views *)

let ablation_incremental () =
  Fmt.pr "@.Ablation (§6.4): full re-traversal vs incremental (keyed) views@.@.";
  let chunks = 64 and buf_size = 8 in
  let spec = Vyrd_boxwood.Cache.spec ~chunks in
  let full_view = Vyrd_boxwood.Cache.viewdef ~chunks ~buf_size in
  let keyed_view = Vyrd_boxwood.Cache.viewdef_keyed ~chunks ~buf_size in
  let make_log seed =
    let log = Log.create ~level:`View () in
    Vyrd_sched.Coop.run ~seed (fun s ->
        let ctx = Instrument.make s log in
        let cm = Vyrd_boxwood.Chunk_manager.create ~chunks ctx in
        let cache = Vyrd_boxwood.Cache.create ~buf_size ctx cm in
        let stop = ref false in
        s.spawn (fun () ->
            while not !stop do
              Vyrd_boxwood.Cache.flush cache;
              s.yield ()
            done);
        let remaining = ref 6 in
        for t = 1 to 6 do
          s.spawn (fun () ->
              let rng = Prng.create (seed + (31 * t)) in
              for _ = 1 to 150 do
                let h = Prng.int rng chunks in
                match Prng.int rng 10 with
                | 0 | 1 | 2 | 3 ->
                  Vyrd_boxwood.Cache.write cache h
                    (String.init buf_size (fun _ -> Char.chr (97 + Prng.int rng 26)))
                | 4 | 5 | 6 | 7 -> ignore (Vyrd_boxwood.Cache.read cache h)
                | _ -> Vyrd_boxwood.Cache.evict cache h
              done;
              decr remaining;
              if !remaining = 0 then stop := true)
        done);
    log
  in
  let log = make_log 3 in
  Fmt.pr "workload: %d-handle store, %d events, checking in `View mode@.@."
    chunks (Log.length log);
  let full_ns =
    measure_ns "view/full" (fun () ->
        ignore (Checker.check ~mode:`View ~view:full_view log spec))
  in
  let keyed_ns =
    measure_ns "view/keyed" (fun () ->
        ignore (Checker.check ~mode:`View ~view:keyed_view log spec))
  in
  let keyed_checker = Checker.create ~mode:`View ~view:keyed_view spec in
  Log.iter (fun ev -> ignore (Checker.feed keyed_checker ev)) log;
  let keyed = Checker.report keyed_checker in
  let full = Checker.check ~mode:`View ~view:full_view log spec in
  let commits = keyed.Report.stats.commits_resolved in
  let projections = Checker.view_projections keyed_checker in
  Fmt.pr "%-28s %10s@." "view computation" "ms/check";
  Fmt.pr "%s@." (line 40);
  Fmt.pr "%-28s %10s@." "full re-traversal" (Fmt.str "%a" pp_ms full_ns);
  Fmt.pr "%-28s %10s@." "incremental (keyed)" (Fmt.str "%a" pp_ms keyed_ns);
  Fmt.pr "@.speedup: %.2fx; keyed recomputed %d key projections over %d commits@."
    (full_ns /. keyed_ns) projections commits;
  Fmt.pr "(full mode recomputes all %d keys at each of the %d commits)@." chunks commits;
  (* deterministic gates: the views agree, and each key is re-projected
     only after its first fill and at commits that changed it *)
  let agree = Report.tag keyed = Report.tag full && keyed.Report.stats = full.Report.stats in
  let bounded = projections <= commits + chunks in
  Fmt.pr "keyed = full verdict and stats: %s; projections <= commits + keys: %s@."
    (if agree then "yes" else "NO")
    (if bounded then "yes" else "NO");
  if not (agree && bounded) then exit 1

(* ---------------------------------------------- ablation: §2 naive search *)

let ablation_naive () =
  Fmt.pr "@.Ablation (§2): naive serialization search vs commit-order witness@.@.";
  Fmt.pr
    "k overlapping insert executions plus one overlapping lookup with an@.\
     unjustifiable return value: a black-box checker explores the whole@.\
     permutation tree; VYRD walks the annotated trace once.@.@.";
  let ev_call tid mid args = Event.Call { tid; mid; args } in
  let ev_ret tid mid v = Event.Return { tid; mid; value = v } in
  let ev_commit tid = Event.Commit { tid } in
  let naive_log k =
    let calls = List.init k (fun i -> ev_call (i + 1) "insert" [ Repr.Int i ]) in
    let rets = List.init k (fun i -> ev_ret (i + 1) "insert" Repr.success) in
    Log.of_events
      ([ ev_call 99 "lookup" [ Repr.Int 999 ] ]
      @ calls @ rets
      @ [ ev_ret 99 "lookup" (Repr.Bool true) ])
  in
  let vyrd_log k =
    let calls = List.init k (fun i -> ev_call (i + 1) "insert" [ Repr.Int i ]) in
    let rest =
      List.concat
        (List.init k (fun i ->
             [ ev_commit (i + 1); ev_ret (i + 1) "insert" Repr.success ]))
    in
    Log.of_events
      ([ ev_call 99 "lookup" [ Repr.Int 999 ] ]
      @ calls @ rest
      @ [ ev_ret 99 "lookup" (Repr.Bool true) ])
  in
  let spec = Vyrd_multiset.Multiset_spec.spec in
  Fmt.pr "%3s %20s %20s@." "k" "naive transitions" "VYRD transitions";
  Fmt.pr "%s@." (line 46);
  List.iter
    (fun k ->
      let _, naive =
        Vyrd_lin.Enum.check ~budget:30_000_000
          (Vyrd_lin.History.of_log (naive_log k)) spec
      in
      let vyrd =
        let r = Checker.check ~mode:`Io (vyrd_log k) spec in
        r.Report.stats.methods_checked + 1
      in
      Fmt.pr "%3d %20d %20d@." k naive vyrd)
    [ 2; 3; 4; 5; 6; 7; 8; 9 ];
  Fmt.pr "@.(both checkers reject the trace; the naive cost grows as ~e-k!@.\
          while the witness-driven cost is linear in the number of methods)@."

(* -------------------------------------- extension: schedule exploration *)

let explore_bounds () =
  Fmt.pr "@.Extension: bounded verification (CHESS-style preemption bounding)@.@.";
  Fmt.pr
    "insert(1) || insert_pair(1,2) on the multiset: schedules needed to@.\
     exhaust the space at each preemption bound, for the correct and the@.\
     buggy (Fig. 5) implementation.@.@.";
  let scenario ~bugs on_log () =
    let log = Log.create ~level:`View () in
    let finished = ref 0 in
    fun (s : Vyrd_sched.Sched.t) ->
      let ctx = Instrument.make s log in
      let ms = Vyrd_multiset.Multiset_vector.create ~bugs ~capacity:4 ctx in
      let done_one () =
        incr finished;
        if !finished = 2 then on_log log
      in
      s.Vyrd_sched.Sched.spawn (fun () ->
          ignore (Vyrd_multiset.Multiset_vector.insert ms 1);
          done_one ());
      s.Vyrd_sched.Sched.spawn (fun () ->
          ignore (Vyrd_multiset.Multiset_vector.insert_pair ms 1 2);
          done_one ())
  in
  let view = Vyrd_multiset.Multiset_vector.viewdef ~capacity:4 in
  let spec = Vyrd_multiset.Multiset_spec.spec in
  Fmt.pr "%6s %20s %22s@." "bound" "correct: schedules" "buggy: violations/schd";
  Fmt.pr "%s@." (line 52);
  List.iter
    (fun pb ->
      let failures = ref 0 in
      let check log =
        if not (Report.is_pass (Checker.check ~mode:`View ~view log spec)) then
          incr failures
      in
      let correct =
        Vyrd_sched.Explore.explore ~preemption_bound:pb ~max_schedules:100_000
          (scenario ~bugs:[] check)
      in
      let correct_cell =
        Fmt.str "%d%s" correct.Vyrd_sched.Explore.schedules
          (if correct.Vyrd_sched.Explore.exhausted then "" else "+")
      in
      let bfailures = ref 0 in
      let bcheck log =
        if not (Report.is_pass (Checker.check ~mode:`View ~view log spec)) then
          incr bfailures
      in
      let buggy =
        Vyrd_sched.Explore.explore ~preemption_bound:pb ~max_schedules:100_000
          (scenario ~bugs:[ Vyrd_multiset.Multiset_vector.Racy_find_slot ] bcheck)
      in
      Fmt.pr "%6d %20s %15d/%d@." pb correct_cell !bfailures
        buggy.Vyrd_sched.Explore.schedules)
    [ 0; 1; 2; 3 ];
  Fmt.pr
    "@.Unbounded, the same scenario exceeds 200k schedules; with bound 1 the@.\
     space is exhausted in a couple dozen runs and already reaches the bug.@."

(* -------------------------------- ground truth: mutant detection matrix *)

(* Table 1 measures time-to-detection against the paper's injected bugs;
   the lib/faults registry re-measures it against mutants whose ground truth
   we control, and fails loudly if any mutant escapes deterministic
   view-mode detection — the checker validating itself. *)
let mutants ~json_out () =
  Fmt.pr "@.Ground truth: seeded-mutant detection matrix (lib/faults)@.@.";
  let rows = Vyrd_harness.Mutants.run_all Vyrd_harness.Mutants.full in
  Fmt.pr "%a@." Vyrd_harness.Mutants.pp_matrix rows;
  (match json_out with
  | Some file -> (
    match open_out file with
    | oc ->
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () -> output_string oc (Vyrd_harness.Mutants.to_json rows));
      Fmt.pr "matrix written to %s@." file
    | exception Sys_error msg -> Fmt.epr "cannot write %s: %s@." file msg)
  | None -> ());
  let detected = List.filter Vyrd_harness.Mutants.deterministic_view_detection rows in
  let beats = List.filter Vyrd_harness.Mutants.view_beats_io rows in
  Fmt.pr
    "@.%d/%d mutants deterministically detected in `View mode; view-mode@.\
     time-to-detection <= io-mode (or io missed outright) for %d/%d —@.\
     Table 1's asymmetry reproduced with ground truth.@."
    (List.length detected) (List.length rows) (List.length beats) (List.length rows);
  if List.length detected < List.length rows then exit 1

(* ---------------------------------------------- baseline: §8 atomicity *)

let baseline_atomizer () =
  Fmt.pr "@.Baseline (§8): Lipton-reduction atomicity vs refinement checking@.@.";
  let open Vyrd_baselines in
  let log = Log.create ~level:`Full () in
  Vyrd_sched.Coop.run ~seed:0 (fun s ->
      let ctx = Instrument.make s log in
      let ms = Vyrd_multiset.Multiset_vector.create ~capacity:8 ctx in
      for t = 1 to 4 do
        s.spawn (fun () ->
            let rng = Prng.create (31 * t) in
            for _ = 1 to 12 do
              let x = Prng.int rng 5 in
              match Prng.int rng 4 with
              | 0 -> ignore (Vyrd_multiset.Multiset_vector.insert ms x)
              | 1 -> ignore (Vyrd_multiset.Multiset_vector.insert_pair ms x (x + 1))
              | 2 -> ignore (Vyrd_multiset.Multiset_vector.delete ms x)
              | _ -> ignore (Vyrd_multiset.Multiset_vector.lookup ms x)
            done)
      done);
  let r = Reduction.analyze log in
  Fmt.pr "correct multiset, %d events at `Full granularity@.@." (Log.length log);
  Fmt.pr "%a@.@." Reduction.pp r;
  let refinement = Checker.check ~mode:`Io log Vyrd_multiset.Multiset_spec.spec in
  Fmt.pr "refinement checking on the same trace: %s@.@." (Report.tag refinement);
  Fmt.pr
    "As §8 argues: insert/insert_pair acquire locks again after releasing@.\
     others, so reduction cannot prove them atomic — a false alarm — while@.\
     refinement accepts the implementation against its specification.@."

(* -------------------------------------------------- analyzer throughput *)

(* Offline analyses are meant to run off the critical path over very large
   logs, so their unit of merit is events/second of log consumed.  Compares
   the passes of `vyrd-check analyze`: FastTrack happens-before race
   detection, the log-discipline linter, the deadlock-potential lock-order
   graph, and lockset+reduction. *)
let analyze_perf () =
  Fmt.pr "@.Analyzer throughput on generated `Full-level logs@.@.";
  let subjects =
    [ Subjects.multiset_vector; Subjects.multiset_btree; Subjects.cache ]
  in
  Fmt.pr "%-22s %-22s %10s %12s@." "subject" "analysis" "ms/log" "events/s";
  Fmt.pr "%s@." (line 70);
  List.iter
    (fun (s : Subjects.t) ->
      let log =
        Harness.run
          {
            Harness.default with
            threads = 4;
            ops_per_thread = 150;
            log_level = `Full;
            seed = 7;
          }
          (s.build ~bug:false)
      in
      let n = Log.length log in
      let row name f =
        let ns = measure_ns name f in
        Fmt.pr "%-22s %-22s %10s %12s@."
          (Fmt.str "%s (%d ev)" s.name n)
          name
          (Fmt.str "%a" pp_ms ns)
          (if Float.is_nan ns then "-"
           else Fmt.str "%.2fM" (float_of_int n /. ns *. 1e9 /. 1e6))
      in
      row "hb-race (FastTrack)" (fun () ->
          ignore (Vyrd_analysis.Racedetect.analyze log));
      row "log lint" (fun () -> ignore (Vyrd_analysis.Lint.check log));
      row "lock-order graph" (fun () ->
          ignore (Vyrd_analysis.Lockgraph.analyze log));
      row "lockset+reduction" (fun () ->
          ignore (Vyrd_baselines.Reduction.analyze log)))
    subjects;
  Fmt.pr "%s@." (line 70)

(* ------------------------------------------------- pipeline experiments *)

module Bincodec = Vyrd_pipeline.Bincodec
module Farm = Vyrd_pipeline.Farm
module Pmetrics = Vyrd_pipeline.Metrics
module Wire = Vyrd_net.Wire
module Server = Vyrd_net.Server
module Client = Vyrd_net.Client

(* Machine-readable sidecars (BENCH_pipeline.json, BENCH_net.json) so CI can
   track throughput without scraping the tables. *)
let write_json file fields =
  match open_out file with
  | oc ->
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () ->
        output_string oc "{";
        List.iteri
          (fun i (k, v) ->
            if i > 0 then output_string oc ",";
            Printf.fprintf oc "%S:%s" k v)
          fields;
        output_string oc "}\n");
    Fmt.pr "wrote %s@." file
  | exception Sys_error msg -> Fmt.epr "cannot write %s: %s@." file msg

let jnum f = if Float.is_nan f then "null" else Printf.sprintf "%.2f" f

(* Disjoint method namespaces, as the farm router requires. *)
let pipeline_subjects =
  [ Subjects.multiset_vector; Subjects.jvector; Subjects.string_buffer ]

let composed () =
  match pipeline_subjects with
  | [] -> assert false
  | s0 :: rest ->
    List.fold_left
      (fun (spec, view) (s : Subjects.t) ->
        (Spec_compose.pair spec s.spec, Spec_compose.pair_views view s.view))
      (s0.spec, s0.view) rest

let multi_log ~threads ~ops ~seed ~level =
  let log = Log.create ~level () in
  Harness.run_into ~log
    { Harness.threads; ops_per_thread = ops; key_pool = 12; key_range = 32;
      seed; log_level = level }
    (List.map (fun (s : Subjects.t) -> s.build ~bug:false) pipeline_subjects);
  log

let farm_shards () =
  List.map
    (fun (s : Subjects.t) -> Farm.shard ~mode:`View ~view:s.view s.name s.spec)
    pipeline_subjects

let pipeline_codec () =
  Fmt.pr "@.Pipeline: binary vs textual codec throughput@.@.";
  let log = multi_log ~threads:8 ~ops:2000 ~seed:3 ~level:`Full in
  let events = Log.snapshot log in
  let n = Array.length events in
  let lines = Array.map Event.to_line events in
  let text_bytes = Array.fold_left (fun a l -> a + String.length l + 1) 0 lines in
  let buf = Bincodec.writer ~size:(n * 16) () in
  Array.iter (Bincodec.put_event buf) events;
  let bin = Bincodec.contents buf in
  let enc_text =
    measure_ns "codec/text-encode" (fun () ->
        Array.iter (fun ev -> ignore (Event.to_line ev)) events)
  in
  let enc_bin =
    measure_ns "codec/bin-encode" (fun () ->
        Bincodec.clear buf;
        Array.iter (Bincodec.put_event buf) events)
  in
  let dec_text =
    measure_ns "codec/text-decode" (fun () ->
        Array.iter (fun l -> ignore (Event.of_line l)) lines)
  in
  let dec_bin =
    measure_ns "codec/bin-decode" (fun () ->
        ignore (Bincodec.iter_events (Bincodec.cursor bin) ignore : int))
  in
  Fmt.pr "%d events at `Full level; %d bytes text, %d bytes binary (%.2fx smaller)@.@."
    n text_bytes (String.length bin)
    (float_of_int text_bytes /. float_of_int (String.length bin));
  Fmt.pr "%-26s %10s %12s@." "codec" "ms/log" "events/s";
  Fmt.pr "%s@." (line 50);
  let row name ns =
    Fmt.pr "%-26s %10s %12s@." name
      (Fmt.str "%a" pp_ms ns)
      (if Float.is_nan ns then "-"
       else Fmt.str "%.2fM" (float_of_int n /. ns *. 1e9 /. 1e6))
  in
  row "text encode (to_line)" enc_text;
  row "binary encode" enc_bin;
  row "text decode (of_line)" dec_text;
  row "binary decode" dec_bin;
  row "text round trip" (enc_text +. dec_text);
  row "binary round trip" (enc_bin +. dec_bin);
  Fmt.pr "@.encode speedup: %.1fx, decode speedup: %.1fx, round trip: %.1fx@."
    (enc_text /. enc_bin) (dec_text /. dec_bin)
    ((enc_text +. dec_text) /. (enc_bin +. dec_bin))

let pipeline_scaling () =
  let k = List.length pipeline_subjects in
  Fmt.pr "@.Pipeline: checker-domain scaling (same stream, 1 vs %d domains)@.@." k;
  let log = multi_log ~threads:8 ~ops:2000 ~seed:5 ~level:`View in
  let events = Log.snapshot log in
  let n = Array.length events in
  let spec, view = composed () in
  let run_farm shards () =
    let farm = Farm.start ~capacity:8192 ~level:`View shards in
    Array.iter (Farm.feed farm) events;
    ignore (Farm.finish farm)
  in
  let offline =
    measure_ns "farm/offline" (fun () ->
        ignore (Checker.check ~mode:`View ~view log spec))
  in
  let one_ns =
    measure_ns ~quota:1.0 "farm/1-domain"
      (run_farm [ Farm.shard ~mode:`View ~view "composite" spec ])
  in
  let many_ns = measure_ns ~quota:1.0 "farm/n-domain" (run_farm (farm_shards ())) in
  Fmt.pr "%d events at `View level@.@." n;
  Fmt.pr "%-30s %10s %12s@." "configuration" "ms/check" "events/s";
  Fmt.pr "%s@." (line 54);
  let row name ns =
    Fmt.pr "%-30s %10s %12s@." name
      (Fmt.str "%a" pp_ms ns)
      (if Float.is_nan ns then "-"
       else Fmt.str "%.2fM" (float_of_int n /. ns *. 1e9 /. 1e6))
  in
  row "offline, in-process" offline;
  row "farm, 1 domain (composite)" one_ns;
  row (Printf.sprintf "farm, %d domains" k) many_ns;
  Fmt.pr "@.%d-domain speedup over 1 domain: %.2fx@." k (one_ns /. many_ns)

let pipeline_backpressure () =
  Fmt.pr "@.Pipeline: backpressure stall vs ring capacity@.@.";
  let log = multi_log ~threads:8 ~ops:2000 ~seed:7 ~level:`View in
  let events = Log.snapshot log in
  Fmt.pr "%d events; the producer blocks whenever a shard's ring is full@.@."
    (Array.length events);
  Fmt.pr "%8s %10s %12s %12s@." "capacity" "wall ms" "high-water" "stall ms";
  Fmt.pr "%s@." (line 46);
  List.iter
    (fun capacity ->
      let farm = Farm.start ~capacity ~level:`View (farm_shards ()) in
      let t0 = Unix.gettimeofday () in
      Array.iter (Farm.feed farm) events;
      let r = Farm.finish farm in
      let dt = (Unix.gettimeofday () -. t0) *. 1e3 in
      let hw =
        List.fold_left (fun a (sr : Farm.shard_result) -> max a sr.Farm.sr_high_water)
          0 r.Farm.shards
      in
      let stall =
        List.fold_left (fun a (sr : Farm.shard_result) -> a + sr.Farm.sr_stall_ns)
          0 r.Farm.shards
      in
      Fmt.pr "%8d %10.2f %12d %12.2f@." capacity dt hw
        (float_of_int stall /. 1e6))
    [ 16; 64; 256; 1024; 8192 ];
  Fmt.pr
    "@.(small rings bound memory hard and surface as stall time; once the@.\
     capacity covers the checkers' burst lag the stall disappears)@."

let pipeline_drain ?(ops = 20_000) () =
  Fmt.pr "@.Pipeline: bounded-memory drain of a large streamed harness run@.@.";
  let capacity = 4096 in
  let level = `View in
  let metrics = Pmetrics.create () in
  let farm = Farm.start ~capacity ~metrics ~level (farm_shards ()) in
  let log = Log.create ~level () in
  Farm.attach farm log;
  (* wire-equivalent byte accounting for the bytes/s sidecar figure *)
  let bin_bytes = ref 0 in
  let bin_buf = Bincodec.writer ~size:64 () in
  Log.subscribe log (fun ev ->
      Bincodec.clear bin_buf;
      Bincodec.put_event bin_buf ev;
      bin_bytes := !bin_bytes + Bincodec.length bin_buf);
  let cfg =
    { Harness.threads = 8; ops_per_thread = ops; key_pool = 12; key_range = 32;
      seed = 11; log_level = level }
  in
  let t0 = Unix.gettimeofday () in
  Harness.run_into ~log cfg
    (List.map (fun (s : Subjects.t) -> s.build ~bug:false) pipeline_subjects);
  let result = Farm.finish farm in
  let dt = Unix.gettimeofday () -. t0 in
  let n = result.Farm.fed in
  Fmt.pr "%d events streamed through %d checker domains in %.2fs (%.0f ev/s)@.@."
    n
    (List.length result.Farm.shards)
    dt
    (float_of_int n /. dt);
  List.iter
    (fun (sr : Farm.shard_result) ->
      Fmt.pr "  %-22s %-6s events %-8d high-water %-6d (cap %d) stall %.1f ms@."
        sr.Farm.sr_name
        (Report.tag sr.Farm.sr_report)
        sr.Farm.sr_events sr.Farm.sr_high_water capacity
        (float_of_int sr.Farm.sr_stall_ns /. 1e6))
    result.Farm.shards;
  let high_water =
    List.fold_left
      (fun a (sr : Farm.shard_result) -> max a sr.Farm.sr_high_water)
      0 result.Farm.shards
  in
  let bounded = high_water <= capacity in
  let spec, view = composed () in
  let offline = Checker.check ~mode:`View ~view log spec in
  let agree = Report.is_pass offline = Report.is_pass result.Farm.merged in
  Fmt.pr "@.bounded memory: %s (every queue high-water <= capacity %d)@."
    (if bounded then "yes" else "NO")
    capacity;
  Fmt.pr "verdict equality with the offline checker: %s (farm %s, offline %s)@."
    (if agree then "yes" else "NO")
    (Report.tag result.Farm.merged) (Report.tag offline);
  if not (bounded && agree) then exit 1;
  (n, dt, !bin_bytes, high_water)

let pipeline ?(json_out = Some "BENCH_pipeline.json") () =
  pipeline_codec ();
  pipeline_scaling ();
  pipeline_backpressure ();
  let events, dt, bytes, high_water = pipeline_drain () in
  match json_out with
  | None -> ()
  | Some file ->
    write_json file
      [
        ("experiment", "\"pipeline-drain\"");
        ("events", string_of_int events);
        ("bytes", string_of_int bytes);
        ("seconds", jnum dt);
        ("events_per_sec", jnum (float_of_int events /. dt));
        ("bytes_per_sec", jnum (float_of_int bytes /. dt));
        ("queue_high_water", string_of_int high_water);
      ]

(* ----------------------------------------------------- net loopback bench *)

(* Same workload checked three ways — offline in-process, farm in-process,
   and streamed over a loopback Unix socket into a vyrdd server — so the
   socket + framing + flow-control tax is directly visible.  EXPERIMENTS.md
   tracks the shape; BENCH_net.json carries the raw numbers for CI. *)
let net_bench ?(json_out = Some "BENCH_net.json") () =
  Fmt.pr "@.Net: loopback submit throughput vs in-process checking@.@.";
  let level = `View in
  let log = multi_log ~threads:8 ~ops:2000 ~seed:9 ~level in
  let n = Log.length log in
  let spec, view = composed () in
  let t0 = Unix.gettimeofday () in
  ignore (Checker.check ~mode:`View ~view log spec);
  let offline_dt = Unix.gettimeofday () -. t0 in
  let t0 = Unix.gettimeofday () in
  let farm = Farm.start ~capacity:4096 ~level (farm_shards ()) in
  Log.iter (Farm.feed farm) log;
  let farm_result = Farm.finish farm in
  let farm_dt = Unix.gettimeofday () -. t0 in
  let sock = Filename.temp_file "vyrdd-bench" ".sock" in
  let metrics = Pmetrics.create () in
  let server =
    Server.start
      (Server.config ~capacity:4096 ~metrics ~addr:(Wire.Unix_socket sock)
         (fun _level -> farm_shards ()))
  in
  let t0 = Unix.gettimeofday () in
  let client = Client.connect ~level ~batch_events:256 (Server.addr server) in
  Log.iter (Client.send client) log;
  let outcome = Client.finish client in
  let net_dt = Unix.gettimeofday () -. t0 in
  let bytes = Client.bytes_sent client in
  Server.stop server;
  let high_water, net_tag =
    match outcome with
    | Client.Checked { report; _ } ->
      (report.Report.stats.queue_high_water, Report.tag report)
    | Client.Spilled _ -> (0, "spilled")
  in
  let evs dt = float_of_int n /. dt in
  Fmt.pr "%d events at `View level, batches of 256 over a Unix socket@.@." n;
  Fmt.pr "%-30s %10s %12s@." "configuration" "wall ms" "events/s";
  Fmt.pr "%s@." (line 54);
  let row name dt =
    Fmt.pr "%-30s %10.2f %12s@." name (dt *. 1e3) (Fmt.str "%.2fM" (evs dt /. 1e6))
  in
  row "offline, in-process" offline_dt;
  row "farm, in-process" farm_dt;
  row "farm, loopback socket" net_dt;
  Fmt.pr
    "@.loopback: %d wire bytes (%.1f MB/s), verdicts agree: %s (farm %s, net %s)@."
    bytes
    (float_of_int bytes /. net_dt /. 1e6)
    (if String.equal net_tag (Report.tag farm_result.Farm.merged) then "yes"
     else "NO")
    (Report.tag farm_result.Farm.merged)
    net_tag;
  if not (String.equal net_tag (Report.tag farm_result.Farm.merged)) then exit 1;
  match json_out with
  | None -> ()
  | Some file ->
    write_json file
      [
        ("experiment", "\"net-loopback\"");
        ("events", string_of_int n);
        ("bytes", string_of_int bytes);
        ("seconds", jnum net_dt);
        ("events_per_sec", jnum (evs net_dt));
        ("bytes_per_sec", jnum (float_of_int bytes /. net_dt));
        ("queue_high_water", string_of_int high_water);
        ("farm_events_per_sec", jnum (evs farm_dt));
        ("offline_events_per_sec", jnum (evs offline_dt));
      ]

(* ------------------------------------------------------- hot-path bench *)

(* Pull one numeric field back out of a flat sidecar written by
   [write_json]; [nan] when the file or the key is missing. *)
let read_json_field file key =
  match open_in file with
  | exception Sys_error _ -> nan
  | ic ->
    let s =
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    let pat = Printf.sprintf "%S:" key in
    let rec find i =
      if i + String.length pat > String.length s then nan
      else if String.sub s i (String.length pat) = pat then begin
        let j = i + String.length pat in
        let k = ref j in
        while
          !k < String.length s
          && (match s.[!k] with '0' .. '9' | '.' | '-' | 'e' | 'E' | '+' -> true | _ -> false)
        do
          incr k
        done;
        match float_of_string_opt (String.sub s j (!k - j)) with
        | Some f -> f
        | None -> nan
      end
      else find (i + 1)
    in
    find 0

(* The flattened feed path end to end: batched ring hand-off, slice-draining
   lanes, flat spec transitions.  Gates (any failure exits 1):

   - verdict + first-violation index identical to the indexed reference
     oracle in io mode on the full workload, and on a fault-seeded
     single-structure view workload across offline, farm, and reference;
   - farm snapshot/restore still round-trips mid-drain on the big workload;
   - best-of-N farm io-mode drain throughput >= --min-evps (default 1M);
   - when --baseline BENCH_hotpath.json is given, farm io-mode drain not
     more than --max-regress percent below the committed number. *)
let hotpath ?(json_out = Some "BENCH_hotpath.json") ~baseline ~max_regress
    ~min_evps ~ops () =
  let module Faults = Vyrd_faults.Faults in
  Fmt.pr "@.Hot path: flattened batched feed path (gate: farm io drain >= %.2fM ev/s)@.@."
    (min_evps /. 1e6);
  let level = `View in
  let log = multi_log ~threads:8 ~ops ~seed:11 ~level in
  let events = Log.snapshot log in
  let n = Array.length events in
  let spec, view = composed () in
  Fmt.pr "%d events at `View level (8 threads x %d ops x %d subjects)@.@." n ops
    (List.length pipeline_subjects);
  let failures = ref [] in
  let gate name ok =
    Fmt.pr "gate: %-52s %s@." name (if ok then "ok" else "FAIL");
    if not ok then failures := name :: !failures
  in
  (* -- correctness: offline io vs the indexed reference oracle ------------ *)
  let io_report, io_idx = Checker.check_indexed ~mode:`Io log spec in
  gate "offline io verdict+index = indexed reference"
    (match Reference.check_indexed log spec with
    | Ok () -> Report.is_pass io_report && io_idx = None
    | Error f ->
      (not (Report.is_pass io_report))
      && io_idx = Some f.Reference.f_index
      && Report.tag io_report = f.Reference.f_kind);
  let view_report = Checker.check ~mode:`View ~view log spec in
  let io_shards () =
    List.map (fun (s : Subjects.t) -> Farm.shard s.name s.spec) pipeline_subjects
  in
  let drain shards =
    let farm = Farm.start ~capacity:8192 ~level shards in
    Array.iter (Farm.feed farm) events;
    Farm.finish farm
  in
  let farm_io = drain (io_shards ()) in
  gate "farm io verdict = offline io verdict"
    (Report.is_pass farm_io.Farm.merged = Report.is_pass io_report
    && (not (Report.is_pass io_report)) = (Farm.min_fail_index farm_io <> None));
  let farm_view = drain (farm_shards ()) in
  gate "farm view verdict = offline view verdict"
    (Report.is_pass farm_view.Farm.merged = Report.is_pass view_report);
  (* -- correctness: fault-seeded single-structure run, exact index -------- *)
  let msubj = Subjects.multiset_vector in
  let mutant_log =
    let run seed =
      Faults.with_armed Instrument.fault_dropped_block (fun () ->
          Harness.run
            { Harness.threads = 4; ops_per_thread = 60; key_pool = 12;
              key_range = 16; seed; log_level = `View }
            (msubj.Subjects.build ~bug:false))
    in
    let rec find seed =
      if seed > 50 then None
      else
        let l = run seed in
        if Report.is_pass (Checker.check ~mode:`View ~view:msubj.Subjects.view l msubj.Subjects.spec)
        then find (seed + 1)
        else Some l
    in
    find 0
  in
  gate "fault-seeded index: offline = farm = reference"
    (match mutant_log with
    | None -> false
    | Some mlog -> (
      let mr, midx =
        Checker.check_indexed ~mode:`View ~view:msubj.Subjects.view mlog
          msubj.Subjects.spec
      in
      let farm =
        Farm.start ~level:`View
          [ Farm.shard ~mode:`View ~view:msubj.Subjects.view msubj.Subjects.name
              msubj.Subjects.spec ]
      in
      Log.iter (Farm.feed farm) mlog;
      let fr = Farm.finish farm in
      match Reference.check_indexed ~view:msubj.Subjects.view mlog msubj.Subjects.spec with
      | Ok () -> false
      | Error f ->
        (not (Report.is_pass mr))
        && midx = Some f.Reference.f_index
        && Report.tag mr = f.Reference.f_kind
        && Farm.min_fail_index fr = midx
        && Report.tag fr.Farm.merged = Report.tag mr));
  (* -- correctness: farm snapshot/restore round-trips mid-drain ----------- *)
  gate "farm checkpoint mid-drain round-trips"
    (let farm = Farm.start ~capacity:8192 ~level (farm_shards ()) in
     let snap = ref None in
     Array.iteri
       (fun i ev ->
         Farm.feed farm ev;
         if i = n / 2 then snap := Farm.checkpoint farm)
       events;
     let straight = Farm.finish farm in
     match !snap with
     | None -> false
     | Some st ->
       let f2 = Farm.start ~restore:st ~capacity:8192 ~level (farm_shards ()) in
       for i = (n / 2) + 1 to n - 1 do
         Farm.feed f2 events.(i)
       done;
       let resumed = Farm.finish f2 in
       Report.tag straight.Farm.merged = Report.tag resumed.Farm.merged
       && Farm.min_fail_index straight = Farm.min_fail_index resumed
       && straight.Farm.merged.Report.stats.Report.events_processed
          = resumed.Farm.merged.Report.stats.Report.events_processed);
  (* -- throughput: best of N trials, wall clock --------------------------- *)
  let trials = 3 in
  Fmt.pr "@.%-30s %10s %12s   (best of %d)@." "configuration" "wall ms" "events/s"
    trials;
  Fmt.pr "%s@." (line 60);
  let best label f =
    let best = ref infinity in
    for _ = 1 to trials do
      let t0 = Unix.gettimeofday () in
      f ();
      let dt = Unix.gettimeofday () -. t0 in
      if dt < !best then best := dt
    done;
    Fmt.pr "%-30s %10.2f %12s@." label
      (!best *. 1e3)
      (Fmt.str "%.2fM" (float_of_int n /. !best /. 1e6));
    !best
  in
  let offline_io_dt =
    best "offline io, in-process" (fun () ->
        ignore (Checker.check ~mode:`Io log spec : Report.t))
  in
  let offline_view_dt =
    best "offline view, in-process" (fun () ->
        ignore (Checker.check ~mode:`View ~view log spec : Report.t))
  in
  let farm_io_dt =
    best "farm io drain" (fun () -> ignore (drain (io_shards ()) : Farm.result))
  in
  let farm_view_dt =
    best "farm view drain" (fun () -> ignore (drain (farm_shards ()) : Farm.result))
  in
  let loopback_dt, loopback_tag =
    let sock = Filename.temp_file "vyrdd-hotpath" ".sock" in
    let server =
      Server.start
        (Server.config ~capacity:8192 ~addr:(Wire.Unix_socket sock)
           (fun _level -> farm_shards ()))
    in
    let t0 = Unix.gettimeofday () in
    let client = Client.connect ~level ~batch_events:256 (Server.addr server) in
    Array.iter (Client.send client) events;
    let outcome = Client.finish client in
    let dt = Unix.gettimeofday () -. t0 in
    Server.stop server;
    Fmt.pr "%-30s %10.2f %12s@." "farm view, loopback socket" (dt *. 1e3)
      (Fmt.str "%.2fM" (float_of_int n /. dt /. 1e6));
    ( dt,
      match outcome with
      | Client.Checked { report; _ } -> Report.tag report
      | Client.Spilled _ -> "spilled" )
  in
  gate "loopback verdict = farm view verdict"
    (String.equal loopback_tag (Report.tag farm_view.Farm.merged));
  let farm_io_evps = float_of_int n /. farm_io_dt in
  gate
    (Printf.sprintf "farm io drain %.2fM ev/s >= %.2fM" (farm_io_evps /. 1e6)
       (min_evps /. 1e6))
    (farm_io_evps >= min_evps);
  (match baseline with
  | None -> ()
  | Some file ->
    let old = read_json_field file "farm_io_events_per_sec" in
    if Float.is_nan old then
      Fmt.pr "gate: baseline %s unreadable — skipping the regression gate@." file
    else
      let floor = old *. (1. -. (max_regress /. 100.)) in
      gate
        (Printf.sprintf "farm io drain %.2fM >= %.2fM (baseline %.2fM - %.0f%%)"
           (farm_io_evps /. 1e6) (floor /. 1e6) (old /. 1e6) max_regress)
        (farm_io_evps >= floor));
  (match json_out with
  | None -> ()
  | Some file ->
    write_json file
      [
        ("experiment", "\"hotpath\"");
        ("events", string_of_int n);
        ("trials", string_of_int trials);
        ("farm_io_events_per_sec", jnum farm_io_evps);
        ("farm_view_events_per_sec", jnum (float_of_int n /. farm_view_dt));
        ("offline_io_events_per_sec", jnum (float_of_int n /. offline_io_dt));
        ("offline_view_events_per_sec", jnum (float_of_int n /. offline_view_dt));
        ("loopback_events_per_sec", jnum (float_of_int n /. loopback_dt));
        ("min_evps_gate", jnum min_evps);
      ]);
  if !failures <> [] then begin
    Fmt.epr "@.hotpath gates failed:@.";
    List.iter (fun f -> Fmt.epr "  - %s@." f) (List.rev !failures);
    exit 1
  end;
  Fmt.pr "@.all hotpath gates passed@."

(* ---------------------------------------------- checkpoint/resume bench *)

(* The replay work the checkpoint frames save: spool a ~1M-event composed
   workload, annotate it with a farm checkpoint frame every n/10 events,
   then compare a full re-check of the recovered spool against resuming
   from the frame at the 90% mark (only the final tenth is replayed).  Both
   sides run over the same pre-read [Segment.recovered] through the same
   one-shard farm, so the ratio isolates checking work from disk recovery.
   EXPERIMENTS.md tracks the shape; BENCH_checkpoint.json carries the raw
   numbers for CI. *)
let checkpoint_bench ?(json_out = Some "BENCH_checkpoint.json") ?(ops = 20_000) () =
  Fmt.pr "@.Checkpoint: resume at the 90%% frame vs full re-check of a spool@.@.";
  let module Resume = Vyrd_pipeline.Resume in
  let module Segment = Vyrd_pipeline.Segment in
  let level = `View in
  let log = multi_log ~threads:8 ~ops ~seed:13 ~level in
  let n = Log.length log in
  let every = max 1 (n / 10) in
  let spec, view = composed () in
  let path = Filename.temp_file "vyrd-bench-ckpt" ".seg" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  let shards _level = [ Farm.shard ~mode:`View ~view "composed" spec ] in
  Segment.write_file path log;
  let spool = Resume.resume ~annotate_every:every ~shards ~path () in
  Fmt.pr "%d events spooled with %d checkpoint frame(s) (every %d events)@.@." n
    spool.Resume.checkpoints every;
  let rz = Segment.read path in
  (* [at:0] admits no checkpoint, so this is the full replay through the
     identical code path *)
  let t0 = Unix.gettimeofday () in
  let full = Resume.resume_recovered ~at:0 ~shards rz in
  let full_dt = Unix.gettimeofday () -. t0 in
  let at = n * 9 / 10 in
  let t0 = Unix.gettimeofday () in
  let resumed = Resume.resume_recovered ~at ~shards rz in
  let resume_dt = Unix.gettimeofday () -. t0 in
  let speedup = full_dt /. resume_dt in
  Fmt.pr "%-30s %10s %12s %12s@." "configuration" "wall ms" "events/s" "replayed";
  Fmt.pr "%s@." (line 68);
  let row name dt replayed =
    Fmt.pr "%-30s %10.2f %12s %12d@." name (dt *. 1e3)
      (Fmt.str "%.2fM" (float_of_int n /. dt /. 1e6))
      replayed
  in
  row "full re-check" full_dt full.Resume.replayed;
  row "resume at 90%" resume_dt resumed.Resume.replayed;
  let agree =
    String.equal (Report.tag full.Resume.report) (Report.tag resumed.Resume.report)
    && full.Resume.fail_index = resumed.Resume.fail_index
  in
  Fmt.pr
    "@.resumed at event %s, replayed %d of %d; verdicts agree: %s; speedup: \
     %.1fx@."
    (match resumed.Resume.resumed_at with
    | Some i -> string_of_int i
    | None -> "NONE (no usable checkpoint)")
    resumed.Resume.replayed n
    (if agree then "yes" else "NO")
    speedup;
  if not agree then exit 1;
  if resumed.Resume.resumed_at = None then exit 1;
  if speedup < 5.0 then begin
    Fmt.epr "resume speedup %.1fx below the 5x floor@." speedup;
    exit 1
  end;
  match json_out with
  | None -> ()
  | Some file ->
    write_json file
      [
        ("experiment", "\"checkpoint-resume\"");
        ("events", string_of_int n);
        ("checkpoint_every", string_of_int every);
        ("checkpoints", string_of_int spool.Resume.checkpoints);
        ("full_seconds", jnum full_dt);
        ("resume_seconds", jnum resume_dt);
        ("speedup", jnum speedup);
        ( "resumed_at",
          match resumed.Resume.resumed_at with
          | Some i -> string_of_int i
          | None -> "null" );
        ("replayed", string_of_int resumed.Resume.replayed);
      ]

(* --------------------------------------------- in-service analysis bench *)

(* What `--analyze` costs on the hot path: the same ~1.1M-event composed
   `View workload as the hotpath bench, drained through the farm with and
   without the level's analysis passes (lint + lockgraph at `View) on the
   dedicated analysis lane.  Gates (any failure exits 1):

   - refinement verdict identical with and without passes attached;
   - every pass saw the whole stream and came back clean on the correct
     workload;
   - passes-attached drain within --max-overhead percent of the plain
     drain (default 15, the in-service budget);
   - when --baseline BENCH_analyze.json is given, the passes-attached
     drain not more than --max-regress percent below the committed number.

   Also reports standalone Lockgraph.analyze throughput over a `Full-level
   log — the lock-order graph needs Acquire/Release events, which `View
   traces do not carry. *)
let analyze_bench ?(json_out = Some "BENCH_analyze.json") ~baseline
    ~max_regress ~max_overhead ~ops () =
  Fmt.pr
    "@.In-service analysis: farm drain with vs without --analyze passes \
     (gate: <= %.0f%% overhead)@.@."
    max_overhead;
  let level = `View in
  let log = multi_log ~threads:8 ~ops ~seed:11 ~level in
  let events = Log.snapshot log in
  let n = Array.length events in
  let passes () = Vyrd_analysis.Pass.for_level level in
  Fmt.pr "%d events at `View level; passes: %s@.@." n
    (String.concat ", "
       (List.map (fun (p : Vyrd_analysis.Pass.t) -> p.Vyrd_analysis.Pass.name)
          (passes ())));
  let failures = ref [] in
  let gate name ok =
    Fmt.pr "gate: %-52s %s@." name (if ok then "ok" else "FAIL");
    if not ok then failures := name :: !failures
  in
  let drain ?passes () =
    let farm = Farm.start ~capacity:8192 ?passes ~level (farm_shards ()) in
    Array.iter (Farm.feed farm) events;
    Farm.finish farm
  in
  (* -- correctness: the analysis lane must not perturb the verdict -------- *)
  let plain = drain () in
  let analyzed = drain ~passes:(passes ()) () in
  gate "verdict identical with and without passes"
    (String.equal (Report.tag plain.Farm.merged) (Report.tag analyzed.Farm.merged)
    && Farm.min_fail_index plain = Farm.min_fail_index analyzed);
  gate "every pass saw the whole stream"
    (analyzed.Farm.analysis <> []
    && List.for_all
         (fun (s : Vyrd_analysis.Pass.summary) ->
           s.Vyrd_analysis.Pass.events = n)
         analyzed.Farm.analysis);
  gate "passes clean on the correct workload"
    (List.for_all Vyrd_analysis.Pass.clean analyzed.Farm.analysis);
  (* -- throughput: best of N trials, wall clock --------------------------- *)
  let trials = 3 in
  Fmt.pr "@.%-30s %10s %12s   (best of %d)@." "configuration" "wall ms"
    "events/s" trials;
  Fmt.pr "%s@." (line 60);
  let best label count f =
    let best = ref infinity in
    for _ = 1 to trials do
      let t0 = Unix.gettimeofday () in
      f ();
      let dt = Unix.gettimeofday () -. t0 in
      if dt < !best then best := dt
    done;
    Fmt.pr "%-30s %10.2f %12s@." label
      (!best *. 1e3)
      (Fmt.str "%.2fM" (float_of_int count /. !best /. 1e6));
    !best
  in
  (* Paired trials: each trial times the plain and the --analyze drain
     back-to-back.  The overhead gate takes the best of the per-pair
     ratios and the ratio of the per-side minima — on a loaded
     single-core CI box a scheduling spike can hit either side of any
     pair, and both statistics discard a different kind of spike, so
     together they approach the true steady-state overhead from above. *)
  let pairs = 5 in
  let plain_dt = ref infinity and passes_dt = ref infinity in
  let pair_ratio = ref infinity in
  for _ = 1 to pairs do
    let t0 = Unix.gettimeofday () in
    ignore (drain () : Farm.result);
    let p = Unix.gettimeofday () -. t0 in
    let t0 = Unix.gettimeofday () in
    ignore (drain ~passes:(passes ()) () : Farm.result);
    let a = Unix.gettimeofday () -. t0 in
    if p < !plain_dt then plain_dt := p;
    if a < !passes_dt then passes_dt := a;
    if a /. p < !pair_ratio then pair_ratio := a /. p
  done;
  let ratio = ref (Float.min !pair_ratio (!passes_dt /. !plain_dt)) in
  let row label dt =
    Fmt.pr "%-30s %10.2f %12s@." label (dt *. 1e3)
      (Fmt.str "%.2fM" (float_of_int n /. dt /. 1e6))
  in
  row "farm view drain, no passes" !plain_dt;
  row "farm view drain, --analyze" !passes_dt;
  let plain_dt = !plain_dt and passes_dt = !passes_dt in
  let full_log =
    multi_log ~threads:8 ~ops:(max 1 (ops / 10)) ~seed:3 ~level:`Full
  in
  let fn = Log.length full_log in
  let lock_dt =
    best (Fmt.str "lockgraph alone, %d ev `Full" fn) fn (fun () ->
        ignore (Vyrd_analysis.Lockgraph.analyze full_log
                 : Vyrd_analysis.Lockgraph.result))
  in
  let overhead_pct = (!ratio -. 1.) *. 100. in
  gate
    (Printf.sprintf "--analyze overhead %.1f%% <= %.0f%% (best of %d pairs)"
       overhead_pct max_overhead pairs)
    (!ratio <= 1. +. (max_overhead /. 100.));
  let passes_evps = float_of_int n /. passes_dt in
  (match baseline with
  | None -> ()
  | Some file ->
    let old = read_json_field file "farm_passes_events_per_sec" in
    if Float.is_nan old then
      Fmt.pr "gate: baseline %s unreadable — skipping the regression gate@."
        file
    else
      let floor = old *. (1. -. (max_regress /. 100.)) in
      gate
        (Printf.sprintf
           "--analyze drain %.2fM >= %.2fM (baseline %.2fM - %.0f%%)"
           (passes_evps /. 1e6) (floor /. 1e6) (old /. 1e6) max_regress)
        (passes_evps >= floor));
  (match json_out with
  | None -> ()
  | Some file ->
    write_json file
      [
        ("experiment", "\"analyze\"");
        ("events", string_of_int n);
        ("trials", string_of_int trials);
        ("pairs", string_of_int pairs);
        ("farm_plain_events_per_sec", jnum (float_of_int n /. plain_dt));
        ("farm_passes_events_per_sec", jnum passes_evps);
        ("overhead_pct", jnum overhead_pct);
        ("lockgraph_events", string_of_int fn);
        ("lockgraph_events_per_sec", jnum (float_of_int fn /. lock_dt));
        ("max_overhead_pct_gate", jnum max_overhead);
      ]);
  if !failures <> [] then begin
    Fmt.epr "@.analyze gates failed:@.";
    List.iter (fun f -> Fmt.epr "  - %s@." f) (List.rev !failures);
    exit 1
  end;
  Fmt.pr "@.all analyze gates passed@."

(* ------------------------------------------------------ lin oracle bench *)

module Lin = Vyrd_lin.Backend

(* What the annotation-free linearizability backend costs next to
   refinement checking, on the same ~1.1M-event composed `View workload as
   the hotpath bench.  Gates (any failure exits 1):

   - lin clean and conclusive on the correct workload — zero budget
     exhaustions, every structure's history linearizable;
   - agreement on a seeded buggy log: refinement convicts and so does lin,
     from calls and returns alone;
   - lin throughput at least --min-evps events/second (default 0.5M — the
     greedy path never snapshots, so the clean-log JIT is nearly linear);
   - when --baseline BENCH_lin.json is given, lin throughput not more than
     --max-regress percent below the committed number.

   The cost table puts refinement (farm view drain, farm io drain) and the
   lin backend side by side over the identical stream — the measured price
   of dropping commit annotations. *)
let lin_bench ?(json_out = Some "BENCH_lin.json") ~baseline ~max_regress
    ~min_evps ~ops () =
  Fmt.pr
    "@.Lin backend: JIT linearizability vs refinement on the hotpath \
     workload@.@.";
  let level = `View in
  let log = multi_log ~threads:8 ~ops ~seed:11 ~level in
  let events = Log.snapshot log in
  let n = Array.length events in
  let specs = List.map (fun (s : Subjects.t) -> (s.name, s.spec)) pipeline_subjects in
  Fmt.pr "%d events at `View level; structures: %s@.@." n
    (String.concat ", " (List.map fst specs));
  let failures = ref [] in
  let gate name ok =
    Fmt.pr "gate: %-52s %s@." name (if ok then "ok" else "FAIL");
    if not ok then failures := name :: !failures
  in
  (* -- correctness -------------------------------------------------------- *)
  let lin = Lin.check_log ~specs log in
  gate "lin clean and conclusive on the correct workload"
    (Lin.clean lin);
  let total f = List.fold_left (fun a r -> a + f r) 0 lin.Lin.structures in
  Fmt.pr "  %d ops, %d pending, %d nodes, %d undos, %d memo hits@."
    (total (fun r -> r.Lin.ls_ops))
    (total (fun r -> r.Lin.ls_pending))
    (total (fun r -> r.Lin.ls_stats.Vyrd_lin.Jit.nodes))
    (total (fun r -> r.Lin.ls_stats.Vyrd_lin.Jit.undos))
    (total (fun r -> r.Lin.ls_stats.Vyrd_lin.Jit.memo_hits));
  let buggy = run_buggy Subjects.multiset_vector ~threads:4 ~ops:60 ~seed:1 in
  let ref_buggy =
    Checker.check ~mode:`View ~view:Subjects.multiset_vector.Subjects.view
      buggy Subjects.multiset_vector.Subjects.spec
  in
  let lin_buggy =
    Lin.check_log
      ~specs:[ (Subjects.multiset_vector.Subjects.name,
                Subjects.multiset_vector.Subjects.spec) ]
      buggy
  in
  gate "both oracles convict the seeded buggy log"
    ((not (Report.is_pass ref_buggy)) && Lin.violations lin_buggy <> []);
  (* -- throughput: best of N trials, wall clock --------------------------- *)
  let trials = 3 in
  Fmt.pr "@.%-30s %10s %12s   (best of %d)@." "oracle" "wall ms" "events/s"
    trials;
  Fmt.pr "%s@." (line 60);
  let best label count f =
    let best = ref infinity in
    for _ = 1 to trials do
      let t0 = Unix.gettimeofday () in
      f ();
      let dt = Unix.gettimeofday () -. t0 in
      if dt < !best then best := dt
    done;
    Fmt.pr "%-30s %10.2f %12s@." label
      (!best *. 1e3)
      (Fmt.str "%.2fM" (float_of_int count /. !best /. 1e6));
    !best
  in
  let drain mode =
    let shards =
      match mode with
      | `View -> farm_shards ()
      | `Io ->
        List.map
          (fun (s : Subjects.t) -> Farm.shard ~mode:`Io s.name s.spec)
          pipeline_subjects
    in
    let farm = Farm.start ~capacity:8192 ~level shards in
    Array.iter (Farm.feed farm) events;
    ignore (Farm.finish farm : Farm.result)
  in
  let view_dt = best "refinement farm, view mode" n (fun () -> drain `View) in
  let io_dt = best "refinement farm, io mode" n (fun () -> drain `Io) in
  let lin_dt =
    best "lin backend (JIT, no commits)" n (fun () ->
        ignore (Lin.check_log ~specs log : Lin.t))
  in
  let lin_evps = float_of_int n /. lin_dt in
  Fmt.pr "@.lin costs %.2fx the view drain, %.2fx the io drain@."
    (lin_dt /. view_dt) (lin_dt /. io_dt);
  gate
    (Printf.sprintf "lin throughput %.2fM >= %.2fM ev/s" (lin_evps /. 1e6)
       (min_evps /. 1e6))
    (lin_evps >= min_evps);
  (match baseline with
  | None -> ()
  | Some file ->
    let old = read_json_field file "lin_events_per_sec" in
    if Float.is_nan old then
      Fmt.pr "gate: baseline %s unreadable — skipping the regression gate@."
        file
    else
      let floor = old *. (1. -. (max_regress /. 100.)) in
      gate
        (Printf.sprintf "lin %.2fM >= %.2fM (baseline %.2fM - %.0f%%)"
           (lin_evps /. 1e6) (floor /. 1e6) (old /. 1e6) max_regress)
        (lin_evps >= floor));
  (match json_out with
  | None -> ()
  | Some file ->
    write_json file
      [
        ("experiment", "\"lin\"");
        ("events", string_of_int n);
        ("trials", string_of_int trials);
        ("ops", string_of_int (total (fun r -> r.Lin.ls_ops)));
        ("nodes", string_of_int (total (fun r -> r.Lin.ls_stats.Vyrd_lin.Jit.nodes)));
        ("lin_events_per_sec", jnum lin_evps);
        ("farm_view_events_per_sec", jnum (float_of_int n /. view_dt));
        ("farm_io_events_per_sec", jnum (float_of_int n /. io_dt));
        ("lin_vs_view_cost", jnum (lin_dt /. view_dt));
        ("min_evps_gate", jnum min_evps);
      ]);
  if !failures <> [] then begin
    Fmt.epr "@.lin gates failed:@.";
    List.iter (fun f -> Fmt.epr "  - %s@." f) (List.rev !failures);
    exit 1
  end;
  Fmt.pr "@.all lin gates passed@."

(* -------------------------------------------------------- cluster bench *)

module Coordinator = Vyrd_cluster.Coordinator

(* Hidden re-exec mode: one vyrdd worker process per ring member, so the
   scaling the bench measures is real multicore scaling (every in-process
   thread multiplexes domain 0 — only separate processes give each worker
   its own runtime).  The parent SIGTERMs us when the run is over. *)
let cluster_worker_main sock =
  ignore
    (Server.start
       (Server.config ~capacity:8192 ~max_sessions:64 ~idle_timeout:300.
          ~addr:(Wire.Unix_socket sock) (fun _level -> farm_shards ()))
      : Server.t);
  while true do
    Thread.delay 3600.
  done

(* The same N-session workload pushed through a coordinator fronting 1, 2,
   and 4 worker processes.  Gates (any failure exits 1):

   - every session's verdict and first-violation index identical to offline
     single-process checking, at every cluster width;
   - with >= 4 cores visible, 2 workers at least --min-speedup (default
     1.8x) faster than 1 (skipped, not failed, on smaller machines: the
     coordinator and the workers would just timeshare one core);
   - when --baseline BENCH_cluster.json is given, 2-worker throughput not
     more than --max-regress percent below the committed number. *)
let cluster_bench ?(json_out = Some "BENCH_cluster.json") ~baseline ~max_regress
    ~min_speedup ~sessions () =
  Fmt.pr "@.Cluster: coordinator fronting 1, 2, 4 vyrdd worker processes@.@.";
  let level = `View in
  (* the hotpath-scale aggregate (~1.1M events: 8 threads x 20k ops x 3
     structures) split across the sessions, so widths are compared on the
     same total stream the single-process benches drain *)
  let logs =
    Array.init sessions (fun i ->
        multi_log ~threads:8 ~ops:(max 1 (20_000 / sessions)) ~seed:(101 + i)
          ~level)
  in
  let total = Array.fold_left (fun a l -> a + Log.length l) 0 logs in
  let spec, view = composed () in
  let reference =
    Array.map (fun l -> Checker.check_indexed ~mode:`View ~view l spec) logs
  in
  let cores = Domain.recommended_domain_count () in
  Fmt.pr "%d sessions, %d events total, %d core(s) visible@.@." sessions total
    cores;
  let failures = ref [] in
  let gate name ok =
    Fmt.pr "gate: %-52s %s@." name (if ok then "ok" else "FAIL");
    if not ok then failures := name :: !failures
  in
  let run_with workers =
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "vyrd-bench-cluster-%d-w%d" (Unix.getpid ()) workers)
    in
    (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    let members =
      List.init workers (fun i ->
          let sock = Filename.concat dir (Printf.sprintf "w%d.sock" i) in
          let pid =
            Unix.create_process Sys.executable_name
              [| Sys.executable_name; "cluster-worker"; sock |]
              Unix.stdin Unix.stdout Unix.stderr
          in
          (i, sock, pid))
    in
    let coord =
      Coordinator.start
        (Coordinator.config
           ~worker_slots:(max 1 ((sessions + workers - 1) / workers))
           ~metrics:(Pmetrics.create ())
           ~addr:(Wire.Unix_socket (Filename.concat dir "vyrdc.sock"))
           ~spool_dir:dir ())
    in
    List.iter
      (fun (i, sock, _) ->
        Coordinator.attach coord ~name:(Printf.sprintf "w%d" i)
          ~addr:(Wire.Unix_socket sock))
      members;
    let outcomes = Array.make sessions None in
    let t0 = Unix.gettimeofday () in
    let threads =
      List.init sessions (fun i ->
          Thread.create
            (fun () ->
              match
                Client.submit_log ~batch_events:256
                  ~producer:(Printf.sprintf "bench-%d" i)
                  (Coordinator.addr coord) logs.(i)
              with
              | outcome -> outcomes.(i) <- Some outcome
              | exception (Client.Server_error _ | Unix.Unix_error _) -> ())
            ())
    in
    List.iter Thread.join threads;
    let dt = Unix.gettimeofday () -. t0 in
    Coordinator.stop coord;
    List.iter
      (fun (_, _, pid) ->
        (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
        try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
      members;
    (try
       Array.iter
         (fun f ->
           try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
         (Sys.readdir dir);
       Unix.rmdir dir
     with Sys_error _ | Unix.Unix_error _ -> ());
    let agree = ref true in
    Array.iteri
      (fun i outcome ->
        let rref, ridx = reference.(i) in
        match outcome with
        | Some (Client.Checked { report; fail_index }) ->
          if
            not
              (String.equal (Report.tag report) (Report.tag rref)
              && fail_index = ridx)
          then agree := false
        | Some (Client.Spilled _) | None -> agree := false)
      outcomes;
    (dt, !agree)
  in
  Fmt.pr "%-30s %10s %12s %9s@." "configuration" "wall ms" "events/s" "speedup";
  Fmt.pr "%s@." (line 64);
  let evps dt = float_of_int total /. dt in
  let measure base workers =
    let dt, agree = run_with workers in
    Fmt.pr "%-30s %10.2f %12s %9s@."
      (Printf.sprintf "%d worker(s)" workers)
      (dt *. 1e3)
      (Fmt.str "%.2fM" (evps dt /. 1e6))
      (match base with
      | None -> "1.00x"
      | Some b -> Fmt.str "%.2fx" (b /. dt));
    gate
      (Printf.sprintf "every verdict+index = offline at %d worker(s)" workers)
      agree;
    dt
  in
  let dt1 = measure None 1 in
  let dt2 = measure (Some dt1) 2 in
  let dt4 = measure (Some dt1) 4 in
  let speedup2 = dt1 /. dt2 and speedup4 = dt1 /. dt4 in
  if cores >= 4 then
    gate
      (Printf.sprintf "2-worker speedup %.2fx >= %.2fx" speedup2 min_speedup)
      (speedup2 >= min_speedup)
  else
    Fmt.pr "gate: 2-worker speedup %.2fx >= %.2fx%s@." speedup2 min_speedup
      (Printf.sprintf " skipped (%d core(s): nothing to parallelize onto)" cores);
  (match baseline with
  | None -> ()
  | Some file ->
    let old = read_json_field file "events_per_sec_w2" in
    if Float.is_nan old then
      Fmt.pr "gate: baseline %s unreadable — skipping the regression gate@." file
    else
      let floor = old *. (1. -. (max_regress /. 100.)) in
      gate
        (Printf.sprintf
           "2-worker %.2fM ev/s >= %.2fM (baseline %.2fM - %.0f%%)"
           (evps dt2 /. 1e6) (floor /. 1e6) (old /. 1e6) max_regress)
        (evps dt2 >= floor));
  (match json_out with
  | None -> ()
  | Some file ->
    write_json file
      [
        ("experiment", "\"cluster\"");
        ("events", string_of_int total);
        ("sessions", string_of_int sessions);
        ("cores", string_of_int cores);
        ("seconds_w1", jnum dt1);
        ("seconds_w2", jnum dt2);
        ("seconds_w4", jnum dt4);
        ("events_per_sec_w1", jnum (evps dt1));
        ("events_per_sec_w2", jnum (evps dt2));
        ("events_per_sec_w4", jnum (evps dt4));
        ("speedup_w2", jnum speedup2);
        ("speedup_w4", jnum speedup4);
        ("min_speedup_gate", jnum min_speedup);
      ]);
  if !failures <> [] then begin
    Fmt.epr "@.cluster gates failed:@.";
    List.iter (fun f -> Fmt.epr "  - %s@." f) (List.rev !failures);
    exit 1
  end;
  Fmt.pr "@.all cluster gates passed@."

(* ------------------------------------------------- monitor-lane overhead *)

module Monitor = Vyrd_monitor.Monitor

(* What the temporal-monitor lane costs on the hotpath workload: the same
   ~1.1M-event composed `View drain with and without the built-in pack
   (lock reversal + resource leak) attached as a farm pass.  Gates (any
   failure exits 1):

   - verdict identical with and without the monitor pass;
   - the pass saw the whole stream and every built-in stayed clean on the
     correct workload;
   - monitor-lane overhead at most --max-overhead percent over the plain
     drain (paired trials, same two spike-discarding statistics as the
     analyze bench);
   - when --baseline BENCH_monitor.json is given, the monitored drain not
     more than --max-regress percent below the committed number.

   Also reports standalone monitor feed throughput over a `Full-level log —
   the built-in packs key on Acquire/Release events, which `View traces do
   not carry, so that row is the packs' real per-event cost. *)
let monitor_bench ?(json_out = Some "BENCH_monitor.json") ~baseline
    ~max_regress ~max_overhead ~ops () =
  Fmt.pr
    "@.Temporal monitors: farm drain with vs without the built-in pack \
     (gate: <= %.0f%% overhead)@.@."
    max_overhead;
  let level = `View in
  let log = multi_log ~threads:8 ~ops ~seed:11 ~level in
  let events = Log.snapshot log in
  let n = Array.length events in
  let passes () = [ Monitor.pass (Monitor.builtins ()) ] in
  Fmt.pr "%d events at `View level; monitors: %s@.@." n
    (String.concat ", " Monitor.builtin_names);
  let failures = ref [] in
  let gate name ok =
    Fmt.pr "gate: %-52s %s@." name (if ok then "ok" else "FAIL");
    if not ok then failures := name :: !failures
  in
  let drain ?passes () =
    let farm = Farm.start ~capacity:8192 ?passes ~level (farm_shards ()) in
    Array.iter (Farm.feed farm) events;
    Farm.finish farm
  in
  (* -- correctness: the monitor lane must not perturb the verdict --------- *)
  let plain = drain () in
  let monitored = drain ~passes:(passes ()) () in
  gate "verdict identical with and without monitors"
    (String.equal (Report.tag plain.Farm.merged)
       (Report.tag monitored.Farm.merged)
    && Farm.min_fail_index plain = Farm.min_fail_index monitored);
  gate "the monitor pass saw the whole stream"
    (monitored.Farm.analysis <> []
    && List.for_all
         (fun (s : Vyrd_analysis.Pass.summary) ->
           s.Vyrd_analysis.Pass.events = n)
         monitored.Farm.analysis);
  gate "built-ins clean on the correct workload"
    (List.for_all Vyrd_analysis.Pass.clean monitored.Farm.analysis);
  (* -- throughput: paired trials, spike-discarding (see analyze_bench) ---- *)
  let pairs = 5 in
  let plain_dt = ref infinity and mon_dt = ref infinity in
  let pair_ratio = ref infinity in
  for _ = 1 to pairs do
    let t0 = Unix.gettimeofday () in
    ignore (drain () : Farm.result);
    let p = Unix.gettimeofday () -. t0 in
    let t0 = Unix.gettimeofday () in
    ignore (drain ~passes:(passes ()) () : Farm.result);
    let m = Unix.gettimeofday () -. t0 in
    if p < !plain_dt then plain_dt := p;
    if m < !mon_dt then mon_dt := m;
    if m /. p < !pair_ratio then pair_ratio := m /. p
  done;
  let ratio = Float.min !pair_ratio (!mon_dt /. !plain_dt) in
  Fmt.pr "@.%-30s %10s %12s   (best of %d pairs)@." "configuration" "wall ms"
    "events/s" pairs;
  Fmt.pr "%s@." (line 60);
  let row label dt count =
    Fmt.pr "%-30s %10.2f %12s@." label (dt *. 1e3)
      (Fmt.str "%.2fM" (float_of_int count /. dt /. 1e6))
  in
  row "farm view drain, no monitors" !plain_dt n;
  row "farm view drain, --monitor" !mon_dt n;
  (* standalone feed cost on a lock-bearing `Full trace *)
  let full_log =
    multi_log ~threads:8 ~ops:(max 1 (ops / 10)) ~seed:3 ~level:`Full
  in
  let full_events = Log.snapshot full_log in
  let fn = Array.length full_events in
  let feed_dt = ref infinity in
  for _ = 1 to 3 do
    let ms = Monitor.builtins () in
    let t0 = Unix.gettimeofday () in
    Array.iter (fun ev -> List.iter (fun m -> Monitor.feed m ev) ms) full_events;
    List.iter (fun m -> ignore (Monitor.finish m : Monitor.verdict)) ms;
    let dt = Unix.gettimeofday () -. t0 in
    if dt < !feed_dt then feed_dt := dt
  done;
  row (Fmt.str "builtin feed, %d ev `Full" fn) !feed_dt fn;
  let overhead_pct = (ratio -. 1.) *. 100. in
  gate
    (Printf.sprintf "--monitor overhead %.1f%% <= %.0f%% (best of %d pairs)"
       overhead_pct max_overhead pairs)
    (ratio <= 1. +. (max_overhead /. 100.));
  let mon_evps = float_of_int n /. !mon_dt in
  (match baseline with
  | None -> ()
  | Some file ->
    let old = read_json_field file "farm_monitor_events_per_sec" in
    if Float.is_nan old then
      Fmt.pr "gate: baseline %s unreadable — skipping the regression gate@."
        file
    else
      let floor = old *. (1. -. (max_regress /. 100.)) in
      gate
        (Printf.sprintf
           "--monitor drain %.2fM >= %.2fM (baseline %.2fM - %.0f%%)"
           (mon_evps /. 1e6) (floor /. 1e6) (old /. 1e6) max_regress)
        (mon_evps >= floor));
  (match json_out with
  | None -> ()
  | Some file ->
    write_json file
      [
        ("experiment", "\"monitor\"");
        ("events", string_of_int n);
        ("pairs", string_of_int pairs);
        ("farm_plain_events_per_sec", jnum (float_of_int n /. !plain_dt));
        ("farm_monitor_events_per_sec", jnum mon_evps);
        ("overhead_pct", jnum overhead_pct);
        ("feed_full_events", string_of_int fn);
        ("feed_full_events_per_sec", jnum (float_of_int fn /. !feed_dt));
        ("max_overhead_pct_gate", jnum max_overhead);
      ]);
  if !failures <> [] then begin
    Fmt.epr "@.monitor gates failed:@.";
    List.iter (fun f -> Fmt.epr "  - %s@." f) (List.rev !failures);
    exit 1
  end;
  Fmt.pr "@.all monitor gates passed@."

(* ------------------------------------------------------------------ CLI *)

let all () =
  table1 ();
  table2 ();
  table3 ();
  ablation_incremental ();
  ablation_naive ();
  baseline_atomizer ();
  explore_bounds ();
  analyze_perf ();
  pipeline ();
  net_bench ();
  checkpoint_bench ();
  cluster_bench ~baseline:None ~max_regress:40. ~min_speedup:1.8 ~sessions:16 ();
  hotpath ~baseline:None ~max_regress:20. ~min_evps:1e6 ~ops:20_000 ();
  analyze_bench ~baseline:None ~max_regress:25. ~max_overhead:15. ~ops:20_000 ();
  monitor_bench ~baseline:None ~max_regress:25. ~max_overhead:15. ~ops:20_000 ();
  lin_bench ~baseline:None ~max_regress:30. ~min_evps:5e5 ~ops:20_000 ();
  mutants ~json_out:(Some "detection_matrix.json") ()

let () =
  (* hidden re-exec mode for [cluster_bench]'s worker processes; never
     returns *)
  if Array.length Sys.argv >= 3 && Sys.argv.(1) = "cluster-worker" then
    cluster_worker_main Sys.argv.(2);
  let open Cmdliner in
  let cmd name doc f = Cmd.v (Cmd.info name ~doc) Term.(const f $ const ()) in
  let group =
    Cmd.group
      ~default:Term.(const all $ const ())
      (Cmd.info "vyrd-bench" ~doc:"Regenerate the paper's tables and ablations.")
      [
        cmd "table1" "Time to detection of error (Table 1)." table1;
        cmd "table2" "Overhead of logging (Table 2)." table2;
        cmd "table3" "Running time breakdown (Table 3)." table3;
        cmd "ablation-incremental" "Full vs incremental views (§6.4)."
          ablation_incremental;
        cmd "ablation-naive" "Naive serialization search vs witness (§2)."
          ablation_naive;
        cmd "baseline-atomizer" "Reduction-based atomicity vs refinement (§8)."
          baseline_atomizer;
        cmd "explore-bounds" "Bounded verification at several preemption bounds."
          explore_bounds;
        cmd "analyze-perf"
          "Offline-analyzer throughput (events/sec): happens-before race \
           detection, log lint, lock-order graph, lockset+reduction."
          analyze_perf;
        cmd "pipeline"
          "Streaming pipeline: binary-vs-text codec throughput, 1-vs-N \
           checker-domain scaling, backpressure stall time, and a large \
           bounded-memory drain with verdict equality (writes \
           BENCH_pipeline.json)."
          (fun () -> pipeline ());
        cmd "net"
          "Loopback vyrdd submit throughput vs in-process checking (writes \
           BENCH_net.json)."
          (fun () -> net_bench ());
        cmd "checkpoint"
          "Checkpointed resume: full re-check of a ~1M-event spool vs \
           resuming from the 90% checkpoint frame, with verdict-equality \
           and speedup gates (writes BENCH_checkpoint.json)."
          (fun () -> checkpoint_bench ());
        Cmd.v
          (Cmd.info "hotpath"
             ~doc:
               "Flattened feed path: differential correctness gates (indexed \
                reference oracle, farm index equality, checkpoint round-trip) \
                plus best-of-3 throughput with a >= 1M ev/s farm io-drain \
                gate and an optional baseline regression gate (writes \
                BENCH_hotpath.json).")
          Term.(
            const (fun baseline max_regress min_evps ops ->
                hotpath ~baseline ~max_regress ~min_evps ~ops ())
            $ Arg.(
                value
                & opt (some string) None
                & info [ "baseline" ] ~docv:"FILE"
                    ~doc:
                      "Committed BENCH_hotpath.json to gate against: fail if \
                       farm io drain drops more than $(b,--max-regress) \
                       percent below it.")
            $ Arg.(
                value & opt float 20.
                & info [ "max-regress" ] ~docv:"PCT"
                    ~doc:"Allowed regression vs the baseline, in percent.")
            $ Arg.(
                value & opt float 1e6
                & info [ "min-evps" ] ~docv:"EV_PER_S"
                    ~doc:"Absolute farm io-drain floor in events/second.")
            $ Arg.(
                value & opt int 20_000
                & info [ "ops" ] ~docv:"N" ~doc:"Operations per thread."));
        Cmd.v
          (Cmd.info "analyze"
             ~doc:
               "In-service analysis overhead: farm view drain with vs \
                without the level's analysis passes (lint + lock-order \
                graph) on the hotpath workload, gated at --max-overhead \
                percent, plus standalone lock-order-graph throughput and an \
                optional baseline regression gate (writes \
                BENCH_analyze.json).")
          Term.(
            const (fun baseline max_regress max_overhead ops ->
                analyze_bench ~baseline ~max_regress ~max_overhead ~ops ())
            $ Arg.(
                value
                & opt (some string) None
                & info [ "baseline" ] ~docv:"FILE"
                    ~doc:
                      "Committed BENCH_analyze.json to gate against: fail if \
                       the passes-attached drain drops more than \
                       $(b,--max-regress) percent below it.")
            $ Arg.(
                value & opt float 25.
                & info [ "max-regress" ] ~docv:"PCT"
                    ~doc:"Allowed regression vs the baseline, in percent.")
            $ Arg.(
                value & opt float 15.
                & info [ "max-overhead" ] ~docv:"PCT"
                    ~doc:
                      "Allowed analysis-lane overhead over the plain drain, \
                       in percent.")
            $ Arg.(
                value & opt int 20_000
                & info [ "ops" ] ~docv:"N" ~doc:"Operations per thread."));
        Cmd.v
          (Cmd.info "monitor"
             ~doc:
               "Temporal-monitor overhead: farm view drain with vs without \
                the built-in pack (lock reversal + resource leak) on the \
                hotpath workload, gated at --max-overhead percent with a \
                verdict-equality gate, plus standalone pack feed throughput \
                over a `Full trace and an optional baseline regression gate \
                (writes BENCH_monitor.json).")
          Term.(
            const (fun baseline max_regress max_overhead ops ->
                monitor_bench ~baseline ~max_regress ~max_overhead ~ops ())
            $ Arg.(
                value
                & opt (some string) None
                & info [ "baseline" ] ~docv:"FILE"
                    ~doc:
                      "Committed BENCH_monitor.json to gate against: fail if \
                       the monitored drain drops more than \
                       $(b,--max-regress) percent below it.")
            $ Arg.(
                value & opt float 25.
                & info [ "max-regress" ] ~docv:"PCT"
                    ~doc:"Allowed regression vs the baseline, in percent.")
            $ Arg.(
                value & opt float 15.
                & info [ "max-overhead" ] ~docv:"PCT"
                    ~doc:
                      "Allowed monitor-lane overhead over the plain drain, \
                       in percent.")
            $ Arg.(
                value & opt int 20_000
                & info [ "ops" ] ~docv:"N" ~doc:"Operations per thread."));
        Cmd.v
          (Cmd.info "lin"
             ~doc:
               "Annotation-free linearizability backend: correctness gates \
                (clean+conclusive on the correct hotpath workload, \
                refinement/lin agreement on a seeded buggy log) plus \
                best-of-3 throughput next to the farm's view and io drains, \
                with a --min-evps floor and an optional baseline regression \
                gate (writes BENCH_lin.json).")
          Term.(
            const (fun baseline max_regress min_evps ops ->
                lin_bench ~baseline ~max_regress ~min_evps ~ops ())
            $ Arg.(
                value
                & opt (some string) None
                & info [ "baseline" ] ~docv:"FILE"
                    ~doc:
                      "Committed BENCH_lin.json to gate against: fail if lin \
                       throughput drops more than $(b,--max-regress) percent \
                       below it.")
            $ Arg.(
                value & opt float 30.
                & info [ "max-regress" ] ~docv:"PCT"
                    ~doc:"Allowed regression vs the baseline, in percent.")
            $ Arg.(
                value & opt float 5e5
                & info [ "min-evps" ] ~docv:"EV_PER_S"
                    ~doc:"Absolute lin-throughput floor in events/second.")
            $ Arg.(
                value & opt int 20_000
                & info [ "ops" ] ~docv:"N" ~doc:"Operations per thread."));
        Cmd.v
          (Cmd.info "cluster"
             ~doc:
               "Coordinator scaling: the same N-session workload through 1, \
                2, and 4 vyrdd worker processes, with verdict-equality gates \
                at every width, a cores-gated 2-worker speedup floor, and an \
                optional baseline regression gate (writes \
                BENCH_cluster.json).")
          Term.(
            const (fun baseline max_regress min_speedup sessions ->
                cluster_bench ~baseline ~max_regress ~min_speedup ~sessions ())
            $ Arg.(
                value
                & opt (some string) None
                & info [ "baseline" ] ~docv:"FILE"
                    ~doc:
                      "Committed BENCH_cluster.json to gate against: fail if \
                       2-worker throughput drops more than \
                       $(b,--max-regress) percent below it.")
            $ Arg.(
                value & opt float 40.
                & info [ "max-regress" ] ~docv:"PCT"
                    ~doc:"Allowed regression vs the baseline, in percent.")
            $ Arg.(
                value & opt float 1.8
                & info [ "min-speedup" ] ~docv:"X"
                    ~doc:
                      "2-worker speedup floor over 1 worker (enforced only \
                       when >= 4 cores are visible).")
            $ Arg.(
                value & opt int 16
                & info [ "sessions" ] ~docv:"N" ~doc:"Concurrent sessions."));
        Cmd.v
          (Cmd.info "mutants"
             ~doc:
               "Seeded-mutant detection matrix: every lib/faults mutant vs \
                regime and refinement mode (ground truth for Table 1).")
          Term.(
            const (fun json -> mutants ~json_out:json ())
            $ Arg.(
                value
                & opt (some string) None
                & info [ "json" ] ~docv:"FILE" ~doc:"Also write the matrix as JSON."));
        cmd "all" "Run every experiment." all;
      ]
  in
  exit (Cmd.eval group)
