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

(* Wall-clock seconds of one call of [f]. *)
let time f =
  let t0 = Unix.gettimeofday () in
  f ();
  Unix.gettimeofday () -. t0

let trials = 3

(* The §7.1 program of the timing experiments: 8 threads drawing their keys
   from a pool of 12 out of 32. *)
let config ~ops ~seed level =
  { Harness.threads = 8; ops_per_thread = ops; key_pool = 12; key_range = 32;
    seed; log_level = level }

(* One row of a throughput table: [count] events in [dt] wall seconds. *)
let ev_row label count dt =
  Fmt.pr "%-30s %10.2f %12s@." label (dt *. 1e3)
    (Fmt.str "%.2fM" (float_of_int count /. dt /. 1e6))

let ev_header first note =
  Fmt.pr "@.%-30s %10s %12s   (%s)@." first "wall ms" "events/s" note;
  Fmt.pr "%s@." (line 60)

(* The best wall time of [trials] calls of [f], printed as a row. *)
let best_of label count f =
  let best = ref infinity in
  for _ = 1 to trials do
    best := Float.min !best (time f)
  done;
  ev_row label count !best;
  !best

(* Nearest-rank quartiles (q1, median, q3) of a non-empty sample. *)
let quartiles xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let at p = a.(max 0 (int_of_float (Float.ceil (p *. float_of_int (Array.length a))) - 1)) in
  (at 0.25, at 0.5, at 0.75)

(* ----------------------------------------------------------------- gates *)

(* Machine-readable sidecars (BENCH_<experiment>.json) so CI can track the
   numbers without scraping the tables. *)
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

(* A gated experiment decides each check with [gate] as it goes and ends
   with [finish_gates], which writes the sidecar before it exits 1 on any
   failure, so a red run still leaves its numbers behind. *)
let failures = ref []

let gate name ok =
  Fmt.pr "gate: %-52s %s@." name (if ok then "ok" else "FAIL");
  if not ok then failures := name :: !failures

let finish_gates ?sidecar experiment =
  Option.iter (write_json (Printf.sprintf "BENCH_%s.json" experiment)) sidecar;
  match List.rev !failures with
  | [] -> Fmt.pr "@.all %s gates passed@." experiment
  | failed ->
    Fmt.epr "@.%s gates failed:@." experiment;
    List.iter (Fmt.epr "  - %s@.") failed;
    exit 1

(* With a committed [baseline] sidecar, fail if [value] (events/s) is more
   than [slack] percent below its [key].  A baseline that cannot be read or
   lacks the key fails as well: a renamed key must not turn the gate off. *)
let regress_gate ~baseline ~key ~slack ?(unit = "") label value =
  Option.iter
    (fun file ->
      let old = read_json_field file key in
      if Float.is_nan old then gate (Printf.sprintf "baseline %s has %S" file key) false
      else
        let floor = old *. (1. -. (slack /. 100.)) in
        gate
          (Printf.sprintf "%s %.2fM%s >= %.2fM (baseline %.2fM - %.0f%%)" label
             (value /. 1e6) unit (floor /. 1e6) (old /. 1e6) slack)
          (value >= floor))
    baseline

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
  Fmt.pr "%-22s %12s %12s %12s %10s %10s@." "Implementation" "Prog. alone"
    "I/O logging" "View logging" "io ovh" "view ovh";
  Fmt.pr "%s@." (line 84);
  List.iter
    (fun (s : Subjects.t) ->
      let time level =
        measure_ns
          (s.name ^ "/table2")
          (fun () -> ignore (Harness.run (config ~ops:80 ~seed:1 level) (s.build ~bug:false)))
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
  Fmt.pr "%-22s %12s %12s %16s %14s@." "Program" "Prog. alone" "Prog.+logging"
    "Prog.+log+VYRD" "VYRD offline";
  Fmt.pr "%s@." (line 84);
  let subjects =
    [ Subjects.jvector; Subjects.string_buffer; Subjects.blink_tree; Subjects.cache;
      Subjects.scanfs ]
  in
  List.iter
    (fun (s : Subjects.t) ->
      let w level = Workload.v ~config:(config ~ops:80 ~seed:1 level) [ s ] in
      let alone =
        measure_ns (s.name ^ "/alone") (fun () -> ignore (Workload.log (w `None)))
      in
      let logged =
        measure_ns (s.name ^ "/logged") (fun () -> ignore (Workload.log (w `View)))
      in
      let online =
        measure_ns ~quota:0.8 (s.name ^ "/online") (fun () ->
            let log = Log.create ~level:`View () in
            let farm =
              Vyrd_pipeline.Farm.start ~level:`View (Workload.shards (w `View) `View)
            in
            Vyrd_pipeline.Farm.attach farm log;
            Workload.run_into ~log (w `View);
            ignore (Vyrd_pipeline.Farm.finish farm))
      in
      let recorded = Workload.log (w `View) in
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
  gate "keyed = full verdict and stats"
    (Report.tag keyed = Report.tag full && keyed.Report.stats = full.Report.stats);
  gate "projections <= commits + keys" (projections <= commits + chunks);
  finish_gates "ablation-incremental"

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

(* The composite workload of the pipeline experiments: the three
   disjoint-namespace subjects, as the farm router requires. *)
let composite ~ops ~seed level =
  Workload.v ~config:(config ~ops ~seed level) Workload.composite

(* Calls per thread of [hot], the hotpath-scale workload the gated
   throughput benches drain: 8 threads x [ops] calls x 3 subjects, ~1.1M
   events. *)
let ops = 20_000

let hot = composite ~ops ~seed:11 `View

(* One in-process `View farm drain of [events], with [passes] on the
   analysis lane when given. *)
let drain ?passes shards events =
  let farm = Farm.start ~capacity:8192 ?passes ~level:`View shards in
  Array.iter (Farm.feed farm) events;
  Farm.finish farm

let pipeline_codec () =
  Fmt.pr "@.Pipeline: binary vs textual codec throughput@.@.";
  let log = Workload.log (composite ~ops:2000 ~seed:3 `Full) in
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
  let k = List.length Workload.composite in
  Fmt.pr "@.Pipeline: checker-domain scaling (same stream, 1 vs %d domains)@.@." k;
  let w = composite ~ops:2000 ~seed:5 `View in
  let log = Workload.log w in
  let events = Log.snapshot log in
  let n = Array.length events in
  let spec, view = Workload.product w in
  let offline =
    measure_ns "farm/offline" (fun () ->
        ignore (Checker.check ~mode:`View ~view log spec))
  in
  let one = [ Workload.composite_shard w `View ] and many = Workload.shards w `View in
  let one_ns = measure_ns ~quota:1.0 "farm/1-domain" (fun () -> ignore (drain one events)) in
  let many_ns = measure_ns ~quota:1.0 "farm/n-domain" (fun () -> ignore (drain many events)) in
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
  let log = Workload.log (composite ~ops:2000 ~seed:7 `View) in
  let events = Log.snapshot log in
  Fmt.pr "%d events; the producer blocks whenever a shard's ring is full@.@."
    (Array.length events);
  Fmt.pr "%8s %10s %12s %12s@." "capacity" "wall ms" "high-water" "stall ms";
  Fmt.pr "%s@." (line 46);
  List.iter
    (fun capacity ->
      let farm = Farm.start ~capacity ~level:`View (Workload.shards hot `View) in
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

let pipeline_drain () =
  Fmt.pr "@.Pipeline: bounded-memory drain of a large streamed harness run@.@.";
  let capacity = 4096 in
  let level = `View in
  let metrics = Pmetrics.create () in
  let farm = Farm.start ~capacity ~metrics ~level (Workload.shards hot level) in
  let log = Log.create ~level () in
  Farm.attach farm log;
  (* wire-equivalent byte accounting for the bytes/s sidecar figure *)
  let bin_bytes = ref 0 in
  let bin_buf = Bincodec.writer ~size:64 () in
  Log.subscribe log (fun ev ->
      Bincodec.clear bin_buf;
      Bincodec.put_event bin_buf ev;
      bin_bytes := !bin_bytes + Bincodec.length bin_buf);
  let t0 = Unix.gettimeofday () in
  Workload.run_into ~log hot;
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
  let offline, _ = Workload.reference hot log in
  Fmt.pr "@.";
  gate
    (Printf.sprintf "bounded memory (every queue high-water <= capacity %d)" capacity)
    (high_water <= capacity);
  gate
    (Printf.sprintf "verdict equality with the offline checker (farm %s, offline %s)"
       (Report.tag result.Farm.merged) (Report.tag offline))
    (Report.is_pass offline = Report.is_pass result.Farm.merged);
  (n, dt, !bin_bytes, high_water)

let pipeline () =
  pipeline_codec ();
  pipeline_scaling ();
  pipeline_backpressure ();
  let events, dt, bytes, high_water = pipeline_drain () in
  finish_gates "pipeline"
    ~sidecar:
      [
        ("experiment", "\"pipeline-drain\"");
        ("events", string_of_int events);
        ("bytes", string_of_int bytes);
        ("seconds", jnum dt);
        ("events_per_sec", jnum (float_of_int events /. dt));
        ("bytes_per_sec", jnum (float_of_int bytes /. dt));
        ("queue_high_water", string_of_int high_water);
      ]

(* ------------------------------------------------------- hot-path bench *)

(* The flattened feed path end to end: batched ring hand-off, slice-draining
   lanes, flat spec transitions.  Gates:

   - verdict + first-violation index identical to the indexed reference
     oracle in io mode on the full workload, and on a fault-seeded
     single-structure view workload across offline, farm, and reference;
   - farm snapshot/restore still round-trips mid-drain on the big workload;
   - the loopback socket's verdict equals the in-process farm's;
   - best-of-3 farm io-mode drain throughput >= [min_evps];
   - with a [baseline], farm io drain at most 20% below it.

   The loopback row is the vyrdd path (Wire framing, socket, server decode)
   over the same stream the in-process rows drain. *)
let hotpath ~baseline ~min_evps =
  let module Faults = Vyrd_faults.Faults in
  Fmt.pr "@.Hot path: flattened batched feed path (gate: farm io drain >= %.2fM ev/s)@.@."
    (min_evps /. 1e6);
  let level = `View in
  let log = Workload.log hot in
  let events = Log.snapshot log in
  let n = Array.length events in
  let spec, view = Workload.product hot in
  Fmt.pr "%d events at `View level (8 threads x %d ops x %d subjects)@.@." n ops
    (List.length hot.subjects);
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
  let farm_io = drain (Workload.shards hot `Io) events in
  gate "farm io verdict = offline io verdict"
    (Report.is_pass farm_io.Farm.merged = Report.is_pass io_report
    && (not (Report.is_pass io_report)) = (Farm.min_fail_index farm_io <> None));
  let farm_view = drain (Workload.shards hot `View) events in
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
      let farm = Farm.start ~level:`View (Workload.shards (Workload.v [ msubj ]) `View) in
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
    (let farm = Farm.start ~capacity:8192 ~level (Workload.shards hot level) in
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
       let f2 = Farm.start ~restore:st ~capacity:8192 ~level (Workload.shards hot level) in
       for i = (n / 2) + 1 to n - 1 do
         Farm.feed f2 events.(i)
       done;
       let resumed = Farm.finish f2 in
       Report.tag straight.Farm.merged = Report.tag resumed.Farm.merged
       && Farm.min_fail_index straight = Farm.min_fail_index resumed
       && straight.Farm.merged.Report.stats.Report.events_processed
          = resumed.Farm.merged.Report.stats.Report.events_processed);
  (* -- throughput: best of N trials, wall clock --------------------------- *)
  ev_header "configuration" (Printf.sprintf "best of %d" trials);
  let offline_io_dt =
    best_of "offline io, in-process" n (fun () ->
        ignore (Checker.check ~mode:`Io log spec : Report.t))
  in
  let offline_view_dt =
    best_of "offline view, in-process" n (fun () ->
        ignore (Checker.check ~mode:`View ~view log spec : Report.t))
  in
  let farm_io_dt =
    best_of "farm io drain" n (fun () -> ignore (drain (Workload.shards hot `Io) events : Farm.result))
  in
  let farm_view_dt =
    best_of "farm view drain" n (fun () ->
        ignore (drain (Workload.shards hot `View) events : Farm.result))
  in
  let loopback_tag = ref "" in
  let loopback_dt =
    let sock = Filename.temp_file "vyrdd-hotpath" ".sock" in
    let server =
      Server.start
        (Server.config ~capacity:8192 ~addr:(Wire.Unix_socket sock)
           (Workload.shards hot))
    in
    let dt =
      time (fun () ->
          let client = Client.connect ~level ~batch_events:256 (Server.addr server) in
          Array.iter (Client.send client) events;
          loopback_tag :=
            match Client.finish client with
            | Client.Checked { report; _ } -> Report.tag report
            | Client.Spilled _ -> "spilled")
    in
    Server.stop server;
    ev_row "farm view, loopback socket" n dt;
    dt
  in
  gate "loopback verdict = farm view verdict"
    (String.equal !loopback_tag (Report.tag farm_view.Farm.merged));
  let farm_io_evps = float_of_int n /. farm_io_dt in
  gate
    (Printf.sprintf "farm io drain %.2fM ev/s >= %.2fM" (farm_io_evps /. 1e6)
       (min_evps /. 1e6))
    (farm_io_evps >= min_evps);
  regress_gate ~baseline ~key:"farm_io_events_per_sec" ~slack:20. "farm io drain"
    farm_io_evps;
  finish_gates "hotpath"
    ~sidecar:
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
      ]

(* ---------------------------------------------- checkpoint/resume bench *)

(* The replay work the checkpoint frames save: spool a ~1M-event composed
   workload, annotate it with a farm checkpoint frame every n/10 events,
   then compare a full re-check of the recovered spool against resuming
   from the frame at the 90% mark (only the final tenth is replayed).  Both
   sides run over the same pre-read [Segment.recovered] through the same
   one-shard farm, so the ratio isolates checking work from disk recovery.
   EXPERIMENTS.md tracks the shape; BENCH_checkpoint.json carries the raw
   numbers for CI. *)
let checkpoint_bench () =
  Fmt.pr "@.Checkpoint: resume at the 90%% frame vs full re-check of a spool@.@.";
  let module Resume = Vyrd_pipeline.Resume in
  let module Segment = Vyrd_pipeline.Segment in
  let w = composite ~ops ~seed:13 `View in
  let log = Workload.log w in
  let n = Log.length log in
  let every = max 1 (n / 10) in
  let shards level = [ Workload.composite_shard w level ] in
  let path = Filename.temp_file "vyrd-bench-ckpt" ".seg" in
  let spool, rz =
    Fun.protect
      ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
      (fun () ->
        Segment.write_file path log;
        let spool = Resume.resume ~annotate_every:every ~shards ~path () in
        (spool, Segment.read path))
  in
  Fmt.pr "%d events spooled with %d checkpoint frame(s) (every %d events)@.@." n
    spool.Resume.checkpoints every;
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
  let resumed_at =
    Option.fold ~none:"null" ~some:string_of_int resumed.Resume.resumed_at
  in
  Fmt.pr "@.resumed at event %s, replayed %d of %d; speedup: %.1fx@." resumed_at
    resumed.Resume.replayed n speedup;
  gate "verdicts agree"
    (String.equal (Report.tag full.Resume.report) (Report.tag resumed.Resume.report)
    && full.Resume.fail_index = resumed.Resume.fail_index);
  gate "resumed from a checkpoint frame" (resumed.Resume.resumed_at <> None);
  gate (Printf.sprintf "resume speedup %.1fx >= 5x" speedup) (speedup >= 5.0);
  finish_gates "checkpoint"
    ~sidecar:
      [
        ("experiment", "\"checkpoint-resume\"");
        ("events", string_of_int n);
        ("checkpoint_every", string_of_int every);
        ("checkpoints", string_of_int spool.Resume.checkpoints);
        ("full_seconds", jnum full_dt);
        ("resume_seconds", jnum resume_dt);
        ("speedup", jnum speedup);
        ("resumed_at", resumed_at);
        ("replayed", string_of_int resumed.Resume.replayed);
      ]

(* ------------------------------------------------ analysis-lane overhead *)

module Pass = Vyrd_analysis.Pass
module Monitor = Vyrd_monitor.Monitor

(* A set of passes measured on the farm's analysis lane by [lane_overhead]:
   [experiment] names the subcommand and its sidecar, [flag] the vyrd_check
   switch that attaches the passes, [noun] what the gate and row labels
   call them.  [alone] runs the passes' own work over a `Full log, whose
   Acquire/Release events the `View drain does not carry; [alone_key]
   prefixes its sidecar keys. *)
type lane = {
  experiment : string;
  title : string;
  flag : string;
  noun : string;
  listing : string;
  saw_gate : string;
  clean_gate : string;
  passes : unit -> Pass.t list;
  lane_key : string;
  alone_label : string;
  alone_key : string;
  alone : Log.t -> unit;
}

let analysis_lane =
  let passes () = Pass.for_level `View in
  {
    experiment = "analyze";
    title = "In-service analysis: farm drain with vs without --analyze passes";
    flag = "--analyze";
    noun = "passes";
    listing =
      "passes: " ^ String.concat ", " (List.map (fun (p : Pass.t) -> p.Pass.name) (passes ()));
    saw_gate = "every pass saw the whole stream";
    clean_gate = "passes clean on the correct workload";
    passes;
    lane_key = "farm_passes_events_per_sec";
    alone_label = "lockgraph alone";
    alone_key = "lockgraph";
    alone = (fun log -> ignore (Vyrd_analysis.Lockgraph.analyze log : Vyrd_analysis.Lockgraph.result));
  }

let monitor_lane =
  {
    experiment = "monitor";
    title = "Temporal monitors: farm drain with vs without the built-in pack";
    flag = "--monitor";
    noun = "monitors";
    listing = "monitors: " ^ String.concat ", " Monitor.builtin_names;
    saw_gate = "the monitor pass saw the whole stream";
    clean_gate = "built-ins clean on the correct workload";
    passes = (fun () -> [ Monitor.pass (Monitor.builtins ()) ]);
    lane_key = "farm_monitor_events_per_sec";
    alone_label = "builtin feed";
    alone_key = "feed_full";
    alone =
      (fun log ->
        let ms = Monitor.builtins () in
        Log.iter (fun ev -> List.iter (fun m -> Monitor.feed m ev) ms) log;
        List.iter (fun m -> ignore (Monitor.finish m : Monitor.verdict)) ms);
  }

(* What a lane of passes costs on the hot path: the hotpath workload drained
   through the farm with and without [lane]'s passes.  Gates:

   - refinement verdict identical with and without the passes;
   - every pass saw the whole stream and came back clean on the correct
     workload;
   - the median of 5 paired ratios (plain drain, then lane drain, timed
     back to back) at most 15% over 1 — the in-service budget;
   - with a [baseline], the lane drain at most 40% below it. *)
let lane_overhead lane ~baseline =
  let max_overhead = 15. and pairs = 5 in
  Fmt.pr "@.%s (gate: <= %.0f%% overhead)@.@." lane.title max_overhead;
  let events = Log.snapshot (Workload.log hot) in
  let n = Array.length events in
  Fmt.pr "%d events at `View level; %s@.@." n lane.listing;
  let plain () = drain (Workload.shards hot `View) events in
  let laned () = drain ~passes:(lane.passes ()) (Workload.shards hot `View) events in
  (* -- correctness: the lane must not perturb the verdict ----------------- *)
  let p = plain () in
  let a = laned () in
  gate ("verdict identical with and without " ^ lane.noun)
    (String.equal (Report.tag p.Farm.merged) (Report.tag a.Farm.merged)
    && Farm.min_fail_index p = Farm.min_fail_index a);
  gate lane.saw_gate
    (a.Farm.analysis <> []
    && List.for_all (fun (s : Pass.summary) -> s.Pass.events = n) a.Farm.analysis);
  gate lane.clean_gate (List.for_all Pass.clean a.Farm.analysis);
  (* -- throughput: paired trials ------------------------------------------ *)
  let samples =
    List.init pairs (fun _ ->
        let p = time (fun () -> ignore (plain () : Farm.result)) in
        (p, time (fun () -> ignore (laned () : Farm.result))))
  in
  let best side = List.fold_left (fun b s -> Float.min b (side s)) infinity samples in
  let plain_dt = best fst and lane_dt = best snd in
  let q1, median, q3 = quartiles (List.map (fun (p, a) -> a /. p) samples) in
  ev_header "configuration" (Printf.sprintf "best of %d pairs" pairs);
  ev_row ("farm view drain, no " ^ lane.noun) n plain_dt;
  ev_row ("farm view drain, " ^ lane.flag) n lane_dt;
  let full_log = Workload.log (composite ~ops:(ops / 10) ~seed:3 `Full) in
  let fn = Log.length full_log in
  let alone_dt =
    best_of (Fmt.str "%s, %d ev `Full" lane.alone_label fn) fn (fun () ->
        lane.alone full_log)
  in
  let overhead_pct = (median -. 1.) *. 100. and iqr_pct = (q3 -. q1) *. 100. in
  Fmt.pr "@.%s overhead: median of %d paired ratios %.1f%%, IQR %.1f points@."
    lane.flag pairs overhead_pct iqr_pct;
  gate
    (Printf.sprintf "%s overhead %.1f%% <= %.0f%% (median of %d pairs)" lane.flag
       overhead_pct max_overhead pairs)
    (overhead_pct <= max_overhead);
  let lane_evps = float_of_int n /. lane_dt in
  regress_gate ~baseline ~key:lane.lane_key ~slack:40. (lane.flag ^ " drain") lane_evps;
  finish_gates lane.experiment
    ~sidecar:
      [
        ("experiment", Printf.sprintf "%S" lane.experiment);
        ("events", string_of_int n);
        ("trials", string_of_int trials);
        ("pairs", string_of_int pairs);
        ("farm_plain_events_per_sec", jnum (float_of_int n /. plain_dt));
        (lane.lane_key, jnum lane_evps);
        ("overhead_pct", jnum overhead_pct);
        ("overhead_iqr_pct", jnum iqr_pct);
        (lane.alone_key ^ "_events", string_of_int fn);
        (lane.alone_key ^ "_events_per_sec", jnum (float_of_int fn /. alone_dt));
        ("max_overhead_pct_gate", jnum max_overhead);
      ]

(* ------------------------------------------------------ lin oracle bench *)

module Lin = Vyrd_lin.Backend

(* What the annotation-free linearizability backend costs next to
   refinement checking, on the hotpath workload.  Gates:

   - lin clean and conclusive on the correct workload — zero budget
     exhaustions, every structure's history linearizable;
   - agreement on a seeded buggy log: refinement convicts and so does lin,
     from calls and returns alone;
   - lin throughput at least 0.5M events/second (the greedy path never
     snapshots, so the clean-log JIT is nearly linear);
   - with a [baseline], lin throughput at most 40% below it.

   The cost table puts refinement (farm view drain, farm io drain) and the
   lin backend side by side over the identical stream — the measured price
   of dropping commit annotations. *)
let lin_bench ~baseline =
  let min_evps = 5e5 in
  Fmt.pr
    "@.Lin backend: JIT linearizability vs refinement on the hotpath \
     workload@.@.";
  let log = Workload.log hot in
  let events = Log.snapshot log in
  let n = Array.length events in
  let specs = List.map (fun (s : Subjects.t) -> (s.name, s.spec)) hot.subjects in
  Fmt.pr "%d events at `View level; structures: %s@.@." n
    (String.concat ", " (List.map fst specs));
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
  ev_header "oracle" (Printf.sprintf "best of %d" trials);
  let view_dt =
    best_of "refinement farm, view mode" n (fun () ->
        ignore (drain (Workload.shards hot `View) events : Farm.result))
  in
  let io_dt =
    best_of "refinement farm, io mode" n (fun () ->
        ignore (drain (Workload.shards hot `Io) events : Farm.result))
  in
  let lin_dt =
    best_of "lin backend (JIT, no commits)" n (fun () ->
        ignore (Lin.check_log ~specs log : Lin.t))
  in
  let lin_evps = float_of_int n /. lin_dt in
  Fmt.pr "@.lin costs %.2fx the view drain, %.2fx the io drain@."
    (lin_dt /. view_dt) (lin_dt /. io_dt);
  gate
    (Printf.sprintf "lin throughput %.2fM >= %.2fM ev/s" (lin_evps /. 1e6)
       (min_evps /. 1e6))
    (lin_evps >= min_evps);
  regress_gate ~baseline ~key:"lin_events_per_sec" ~slack:40. "lin" lin_evps;
  finish_gates "lin"
    ~sidecar:
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
      ]

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
          ~addr:(Wire.Unix_socket sock) (Workload.shards hot))
      : Server.t);
  while true do
    Thread.delay 3600.
  done

(* The same 16-session workload pushed through a coordinator fronting 1, 2,
   and 4 worker processes.  Gates:

   - every session's verdict and first-violation index identical to offline
     single-process checking, at every cluster width;
   - with >= 4 cores visible, 2 workers at least 1.8x faster than 1
     (skipped, not failed, on smaller machines: the coordinator and the
     workers would just timeshare one core);
   - with a [baseline], 2-worker throughput at most 40% below it. *)
let cluster_bench ~baseline =
  let min_speedup = 1.8 and sessions = 16 in
  Fmt.pr "@.Cluster: coordinator fronting 1, 2, 4 vyrdd worker processes@.@.";
  let level = `View in
  (* the hotpath-scale aggregate split across the sessions, so widths are
     compared on the same total stream the single-process benches drain *)
  let logs =
    Array.init sessions (fun i ->
        Workload.log (composite ~ops:(ops / sessions) ~seed:(101 + i) level))
  in
  let total = Array.fold_left (fun a l -> a + Log.length l) 0 logs in
  let reference = Array.map (Workload.reference hot) logs in
  let cores = Domain.recommended_domain_count () in
  Fmt.pr "%d sessions, %d events total, %d core(s) visible@.@." sessions total
    cores;
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
  regress_gate ~baseline ~key:"events_per_sec_w2" ~slack:40. ~unit:" ev/s" "2-worker"
    (evps dt2);
  finish_gates "cluster"
    ~sidecar:
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
      ]

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
  checkpoint_bench ();
  cluster_bench ~baseline:None;
  hotpath ~baseline:None ~min_evps:1e6;
  lane_overhead analysis_lane ~baseline:None;
  lane_overhead monitor_lane ~baseline:None;
  lin_bench ~baseline:None

let () =
  (* hidden re-exec mode for [cluster_bench]'s worker processes; never
     returns *)
  if Array.length Sys.argv >= 3 && Sys.argv.(1) = "cluster-worker" then
    cluster_worker_main Sys.argv.(2);
  let open Cmdliner in
  let cmd name doc f = Cmd.v (Cmd.info name ~doc) Term.(const f $ const ()) in
  (* A gated subcommand: [--baseline FILE] (the committed sidecar, [what]
     its regression-gated figure) plus any [extra] options. *)
  let gated name doc what extra f =
    let baseline =
      Arg.(
        value
        & opt (some string) None
        & info [ "baseline" ] ~docv:"FILE"
            ~doc:
              (Printf.sprintf
                 "Committed BENCH_%s.json to gate against: fail if %s drops \
                  more than the experiment's slack below it, or if the file \
                  or its key cannot be read."
                 name what))
    in
    Cmd.v (Cmd.info name ~doc) Term.(const f $ baseline $ extra)
  in
  let no_extra = Term.const () in
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
          pipeline;
        cmd "checkpoint"
          "Checkpointed resume: full re-check of a ~1M-event spool vs \
           resuming from the 90% checkpoint frame, with verdict-equality \
           and speedup gates (writes BENCH_checkpoint.json)."
          checkpoint_bench;
        gated "hotpath"
          "Flattened feed path: differential correctness gates (indexed \
           reference oracle, farm index equality, checkpoint round-trip, \
           loopback socket) plus best-of-3 throughput with a farm io-drain \
           floor and an optional baseline regression gate, 20% slack \
           (writes BENCH_hotpath.json)."
          "farm io drain"
          Arg.(
            value & opt float 1e6
            & info [ "min-evps" ] ~docv:"EV_PER_S"
                ~doc:"Absolute farm io-drain floor in events/second.")
          (fun baseline min_evps -> hotpath ~baseline ~min_evps);
        gated "analyze"
          "In-service analysis overhead: farm view drain with vs without \
           the level's analysis passes (lint + lock-order graph) on the \
           hotpath workload, gated at 15% (median of 5 paired ratios), \
           plus standalone lock-order-graph throughput and an optional \
           baseline regression gate, 40% slack (writes BENCH_analyze.json)."
          "the passes-attached drain" no_extra
          (fun baseline () -> lane_overhead analysis_lane ~baseline);
        gated "monitor"
          "Temporal-monitor overhead: farm view drain with vs without the \
           built-in pack (lock reversal + resource leak) on the hotpath \
           workload, gated at 15% (median of 5 paired ratios) with a \
           verdict-equality gate, plus standalone pack feed throughput over \
           a `Full trace and an optional baseline regression gate, 40% \
           slack (writes BENCH_monitor.json)."
          "the monitored drain" no_extra
          (fun baseline () -> lane_overhead monitor_lane ~baseline);
        gated "lin"
          "Annotation-free linearizability backend: correctness gates \
           (clean+conclusive on the correct hotpath workload, \
           refinement/lin agreement on a seeded buggy log) plus best-of-3 \
           throughput next to the farm's view and io drains, with a 0.5M \
           ev/s floor and an optional baseline regression gate, 40% slack \
           (writes BENCH_lin.json)."
          "lin throughput" no_extra
          (fun baseline () -> lin_bench ~baseline);
        gated "cluster"
          "Coordinator scaling: 16 sessions through 1, 2, and 4 vyrdd \
           worker processes, with verdict-equality gates at every width, a \
           1.8x 2-worker speedup floor (with >= 4 cores visible), and an \
           optional baseline regression gate, 40% slack (writes \
           BENCH_cluster.json)."
          "2-worker throughput" no_extra
          (fun baseline () -> cluster_bench ~baseline);
        cmd "all" "Run every experiment." all;
      ]
  in
  exit (Cmd.eval group)
