(* The annotation-free linearizability backend (lib/lin): history extraction
   tolerating pending calls, the JIT backtracking checker against
   hand-written histories and against an independent oracle (brute-force
   enumeration, also the naive baseline of paper §2) on random small
   histories with and without pending calls, the budget guard, conviction
   of a seeded semantic mutant from calls and returns alone — also with every
   non-call/return event stripped from the log — and the farm-lane pass. *)

open Vyrd
open Vyrd_sched
open Vyrd_multiset
open Vyrd_harness
open Vyrd_pipeline
module Faults = Vyrd_faults.Faults
module History = Vyrd_lin.History
module Jit = Vyrd_lin.Jit
module Enum = Vyrd_lin.Enum
module Backend = Vyrd_lin.Backend

let qcheck t = QCheck_alcotest.to_alcotest t
let ev_call tid mid args = Event.Call { tid; mid; args }
let ev_ret tid mid value = Event.Return { tid; mid; value }
let spec = Multiset_spec.spec
let outcome = Alcotest.testable Jit.pp_outcome ( = )

let jit ?budget evs =
  (Jit.check ?budget (History.of_events (Array.of_list evs)) spec).Jit.outcome

(* --- history extraction --------------------------------------------------- *)

let test_history_pending () =
  let evs =
    [|
      ev_call 1 "insert" [ Repr.Int 3 ];
      ev_call 2 "lookup" [ Repr.Int 3 ];
      ev_ret 2 "lookup" (Repr.Bool true);
      Event.Commit { tid = 1 };
      ev_call 3 "count" [ Repr.Int 9 ];
    |]
  in
  let h = History.of_events evs in
  Alcotest.(check int) "three operations" 3 (History.length h);
  Alcotest.(check int) "two still pending" 2 (History.pending h);
  let completed =
    Array.to_list h.History.ops |> List.filter (fun o -> o.History.op_ret <> None)
  in
  (match completed with
  | [ o ] ->
    Alcotest.(check string) "the lookup completed" "lookup" o.History.op_mid;
    Alcotest.(check int) "call position is the log index" 1 o.History.op_call;
    Alcotest.(check int) "return position is the log index" 2 o.History.op_ret_at
  | l -> Alcotest.failf "expected exactly one completed op, got %d" (List.length l));
  (* ownership restriction drops foreign methods entirely *)
  let h' =
    History.of_events ~owns:(fun mid -> mid = "lookup") evs
  in
  Alcotest.(check int) "ownership filter keeps one op" 1 (History.length h')

(* --- JIT checker on hand-written histories -------------------------------- *)

let test_jit_fig3 () =
  (* LookUp(3) overlapping Insert(3): true is justified by linearizing the
     insert first — found without any commit annotation *)
  Alcotest.check outcome "accepted" Jit.Linearizable
    (jit
       [
         ev_call 1 "lookup" [ Repr.Int 3 ];
         ev_call 2 "insert" [ Repr.Int 3 ];
         ev_ret 2 "insert" Repr.success;
         ev_ret 1 "lookup" (Repr.Bool true);
       ])

let test_jit_rejects () =
  (* a lookup strictly after a delete must not see the element *)
  Alcotest.check outcome "rejected" Jit.Not_linearizable
    (jit
       [
         ev_call 1 "insert" [ Repr.Int 3 ];
         ev_ret 1 "insert" Repr.success;
         ev_call 2 "delete" [ Repr.Int 3 ];
         ev_ret 2 "delete" (Repr.Bool true);
         ev_call 3 "lookup" [ Repr.Int 3 ];
         ev_ret 3 "lookup" (Repr.Bool true);
       ])

let test_jit_pending_mutator_justifies () =
  (* the insert never returns, yet a concurrent lookup that saw the element
     is fine: the witness order linearizes the pending insert with a guessed
     success *)
  Alcotest.check outcome "pending insert explains lookup=true" Jit.Linearizable
    (jit
       [
         ev_call 2 "insert" [ Repr.Int 5 ];
         ev_call 1 "lookup" [ Repr.Int 5 ];
         ev_ret 1 "lookup" (Repr.Bool true);
       ]);
  (* and the same pending insert may equally have NOT taken effect *)
  Alcotest.check outcome "pending insert may also be dropped" Jit.Linearizable
    (jit
       [
         ev_call 2 "insert" [ Repr.Int 5 ];
         ev_call 1 "lookup" [ Repr.Int 5 ];
         ev_ret 1 "lookup" (Repr.Bool false);
       ])

let test_jit_pending_cannot_time_travel () =
  (* the pending insert's call is AFTER the lookup returned, so it cannot be
     linearized before the lookup: real-time order still binds pending ops *)
  Alcotest.check outcome "pending call after return cannot explain it"
    Jit.Not_linearizable
    (jit
       [
         ev_call 1 "lookup" [ Repr.Int 5 ];
         ev_ret 1 "lookup" (Repr.Bool true);
         ev_call 2 "insert" [ Repr.Int 5 ];
       ])

(* [k] fully-overlapping inserts plus an overlapping lookup whose return is
   wrong in every serialization: certifying non-linearizability forces the
   search through the permutation tree (the naive baseline's e·k! blow-up);
   memoization collapses it, the budget caps whatever is left *)
let overlapping_inserts k =
  List.init k (fun i -> ev_call (i + 1) "insert" [ Repr.Int i ])
  @ [ ev_call 99 "lookup" [ Repr.Int 999 ] ]
  @ List.init k (fun i -> ev_ret (i + 1) "insert" Repr.success)
  @ [ ev_ret 99 "lookup" (Repr.Bool true) ]

let test_jit_budget () =
  Alcotest.check outcome "tiny budget times out" Jit.Budget_exhausted
    (jit ~budget:10 (overlapping_inserts 12));
  Alcotest.check outcome "default budget suffices" Jit.Not_linearizable
    (jit (overlapping_inserts 12))

let test_jit_memo_prunes () =
  (* the adversarial history above has k! interleavings but only 2^k
     distinct (set, state) configurations; the dead-set must keep the node
     count polynomial where the naive baseline explodes *)
  let h = History.of_events (Array.of_list (overlapping_inserts 9)) in
  let r = Jit.check h spec in
  Alcotest.check outcome "rejected" Jit.Not_linearizable r.Jit.outcome;
  Alcotest.(check bool) "memo was exercised" true (r.Jit.stats.Jit.memo_hits > 0);
  Alcotest.(check bool)
    (Printf.sprintf "nodes %d stay far under 9! = 362880" r.Jit.stats.Jit.nodes)
    true
    (r.Jit.stats.Jit.nodes < 40_000);
  let _, naive = Enum.check ~budget:30_000_000 h spec in
  Alcotest.(check bool)
    (Printf.sprintf "an order of magnitude under the naive %d" naive)
    true
    (r.Jit.stats.Jit.nodes * 10 < naive)

(* --- random histories: the two-oracle differential ------------------------ *)

(* A random concurrent multiset history: up to [threads] threads issue up to
   [ops] operations with randomly chosen (frequently wrong) return values;
   a random subset of the last calls never returns.  Deterministic in the
   seed, so every failure is replayable. *)
let build_events ~seed ~threads ~ops ~allow_pending =
  let rng = Prng.create seed in
  let active = Array.make (threads + 1) None in
  let events = ref [] and remaining = ref ops in
  let emit e = events := e :: !events in
  let steps = ref 0 in
  while (!remaining > 0 || Array.exists (fun o -> o <> None) active) && !steps < 200 do
    incr steps;
    let tid = 1 + Prng.int rng threads in
    match active.(tid) with
    | Some (mid, ret) ->
      if (not allow_pending) || !remaining > 0 || Prng.int rng 2 = 0 then begin
        emit (ev_ret tid mid ret);
        active.(tid) <- None
      end
      else (
        (* decided pending: drop the thread for good *)
        active.(tid) <- None)
    | None ->
      if !remaining > 0 then begin
        decr remaining;
        let k = Repr.Int (Prng.int rng 3) in
        let mid, args, ret =
          match Prng.int rng 5 with
          | 0 ->
            ( "insert", [ k ],
              if Prng.int rng 4 = 0 then Repr.failure else Repr.success )
          | 1 -> ("delete", [ k ], Repr.Bool (Prng.int rng 2 = 0))
          | 2 -> ("lookup", [ k ], Repr.Bool (Prng.int rng 2 = 0))
          | 3 -> ("count", [ k ], Repr.Int (Prng.int rng 3))
          | _ ->
            ( "insert_pair", [ k; Repr.Int (Prng.int rng 3) ],
              if Prng.int rng 4 = 0 then Repr.failure else Repr.success )
        in
        emit (ev_call tid mid args);
        active.(tid) <- Some (mid, ret)
      end
  done;
  List.rev !events

(* pending-at-EOF threads: keep the call, drop nothing else — [build_events]
   already leaves their returns unemitted by construction *)

let history_params =
  QCheck2.Gen.(
    let* seed = int_range 0 1_000_000 in
    let* threads = int_range 1 4 in
    let* ops = int_range 0 12 in
    return (seed, threads, ops))

let prop_jit_matches_enum =
  QCheck2.Test.make
    ~name:"differential: JIT verdict == brute-force enumeration (pending ok)"
    ~count:500 history_params (fun (seed, threads, ops) ->
      let evs = build_events ~seed ~threads ~ops ~allow_pending:true in
      let h = History.of_events (Array.of_list evs) in
      let j = (Jit.check ~budget:5_000_000 h spec).Jit.outcome in
      let e, _ = Enum.check ~budget:5_000_000 ~max_ops:12 h spec in
      (* both searches are exhaustive at this budget; a timeout would make
         the comparison vacuous, so treat it as a failure *)
      j <> Jit.Budget_exhausted && e <> Jit.Budget_exhausted && j = e)

let prop_jit_matches_naive_on_complete =
  QCheck2.Test.make
    ~name:"differential: JIT verdict == naive baseline on complete histories"
    ~count:300 history_params (fun (seed, threads, ops) ->
      let evs = build_events ~seed ~threads ~ops ~allow_pending:false in
      let h = History.of_events (Array.of_list evs) in
      let j = (Jit.check ~budget:5_000_000 h spec).Jit.outcome in
      let e, _ = Enum.check ~budget:5_000_000 ~max_ops:12 h spec in
      j <> Jit.Budget_exhausted && j = e)

(* --- real workloads: clean runs pass, the semantic mutant falls ----------- *)

let subject = Subjects.multiset_vector
let specs = [ (subject.Subjects.name, subject.Subjects.spec) ]

let coop_log ?(level = `View) seed =
  Harness.run
    { threads = 4; ops_per_thread = 25; key_pool = 12; key_range = 16;
      log_level = level; seed }
    (subject.Subjects.build ~bug:false)

let test_clean_runs_linearizable () =
  for seed = 0 to 4 do
    let r = Backend.check_log ~specs (coop_log seed) in
    Alcotest.(check bool)
      (Printf.sprintf "seed %d linearizable" seed)
      true (Backend.clean r)
  done

(* the satellite pin: a refinement-violating mutant log the lin backend
   convicts stays convicted when every non-call/return event is stripped —
   the conviction owes nothing to commit annotations *)
let test_mutant_convicted_without_annotations () =
  let fault = Faults.find "multiset_vector.lost_update" in
  Faults.with_armed fault (fun () ->
      let convicting = ref None in
      let seed = ref 0 in
      while !convicting = None && !seed < 40 do
        let log = coop_log !seed in
        if Backend.violations (Backend.check_log ~specs log) <> [] then
          convicting := Some log;
        incr seed
      done;
      match !convicting with
      | None -> Alcotest.fail "lin backend missed the lost update on 40 seeds"
      | Some log ->
        (* the refinement oracle agrees on the very same log *)
        let refinement =
          Checker.check ~mode:`View ~view:subject.Subjects.view log
            subject.Subjects.spec
        in
        Alcotest.(check bool) "refinement convicts the same log" false
          (Report.is_pass refinement);
        let stripped =
          Log.of_events
            (List.filter
               (function Event.Call _ | Event.Return _ -> true | _ -> false)
               (Log.events log))
        in
        Alcotest.(check int) "conviction survives annotation stripping" 1
          (List.length (Backend.violations (Backend.check_log ~specs stripped))))

(* annotation mutants leave the call/return history correct: lin must NOT
   convict what only the commit machinery can see *)
let test_annotation_mutant_invisible () =
  let fault = Faults.find "multiset_btree.misplaced_commit" in
  Alcotest.(check bool) "registered as non-semantic" false (Faults.semantic fault);
  let s = Subjects.multiset_btree in
  Faults.with_armed fault (fun () ->
      for seed = 0 to 9 do
        let log =
          Harness.run
            { Harness.default with threads = 4; ops_per_thread = 25; seed }
            (s.Subjects.build ~bug:false)
        in
        Alcotest.(check bool)
          (Printf.sprintf "seed %d stays clean under lin" seed)
          true
          (Backend.clean
             (Backend.check_log ~specs:[ (s.Subjects.name, s.Subjects.spec) ] log))
      done)

let test_exhaustive_engine_small_history () =
  let evs = build_events ~seed:42 ~threads:3 ~ops:6 ~allow_pending:true in
  let r =
    Backend.check_log ~exhaustive:12 ~specs:[ ("multiset", spec) ]
      (Log.of_events evs)
  in
  match r.Backend.structures with
  | [ s ] -> Alcotest.(check string) "enum engine selected" "enum" s.Backend.ls_engine
  | l -> Alcotest.failf "expected one structure, got %d" (List.length l)

(* --- farm lane + metrics --------------------------------------------------- *)

let test_farm_pass_and_metrics () =
  let fault = Faults.find "multiset_vector.lost_update" in
  Faults.with_armed fault (fun () ->
      (* find a convicting seed first so the farm test is deterministic *)
      let seed = ref 0 and log = ref (coop_log 0) in
      while
        Backend.violations (Backend.check_log ~specs !log) = [] && !seed < 40
      do
        incr seed;
        log := coop_log !seed
      done;
      let metrics = Metrics.create () in
      let farm =
        Farm.start ~metrics ~level:(Log.level !log)
          ~passes:[ Backend.pass ~metrics ~specs () ]
          [
            Farm.shard ~mode:`View ~view:subject.Subjects.view
              subject.Subjects.name subject.Subjects.spec;
          ]
      in
      Log.iter (Farm.feed farm) !log;
      let result = Farm.finish farm in
      (* both oracles agree through the pipeline *)
      Alcotest.(check bool) "refinement lane convicts" false
        (Report.is_pass result.Farm.merged);
      (match
         List.find_opt
           (fun s -> s.Vyrd_analysis.Pass.pass = "lin")
           result.Farm.analysis
       with
      | None -> Alcotest.fail "no lin summary in farm analysis"
      | Some s ->
        Alcotest.(check int) "one lin error" 1 s.Vyrd_analysis.Pass.errors;
        Alcotest.(check bool) "diagnostic names the structure" true
          (List.exists
             (fun d -> d.Vyrd_analysis.Pass.id = "lin-not-linearizable")
             s.Vyrd_analysis.Pass.diags));
      let v name = Metrics.value (Metrics.counter metrics name) in
      Alcotest.(check int) "lin.histories_checked" 1 (v "lin.histories_checked");
      Alcotest.(check int) "lin.violations" 1 (v "lin.violations");
      Alcotest.(check bool) "lin.nodes counted" true (v "lin.nodes" > 0);
      Alcotest.(check bool) "lin.ops counted" true (v "lin.ops" > 0))

(* --- examples/logs: the two backends agree offline ------------------------- *)

let examples_dir () =
  List.find Sys.file_exists [ "examples/logs"; "../../../examples/logs" ]

let test_examples_agreement () =
  let cases =
    [
      ("multiset_vector.log", Subjects.multiset_vector);
      ("multiset_vector_buggy.log", Subjects.multiset_vector);
      ("cache.log", Subjects.cache);
      ("scanfs.log", Subjects.scanfs);
    ]
  in
  List.iter
    (fun (file, (s : Subjects.t)) ->
      let log = Log.of_file (Filename.concat (examples_dir ()) file) in
      let refinement_pass =
        Report.is_pass (Checker.check ~mode:`View ~view:s.Subjects.view log s.Subjects.spec)
      in
      let lin =
        Backend.check_log ~specs:[ (s.Subjects.name, s.Subjects.spec) ] log
      in
      Alcotest.(check bool)
        (file ^ ": conclusive")
        false (Backend.inconclusive lin);
      Alcotest.(check bool)
        (file ^ ": backends agree")
        refinement_pass (Backend.clean lin))
    cases

let suite =
  [
    ("history: pending calls tolerated", `Quick, test_history_pending);
    ("jit: fig3 accepted", `Quick, test_jit_fig3);
    ("jit: bad trace rejected", `Quick, test_jit_rejects);
    ("jit: pending mutator both ways", `Quick, test_jit_pending_mutator_justifies);
    ("jit: pending ops respect real time", `Quick, test_jit_pending_cannot_time_travel);
    ("jit: budget guard", `Quick, test_jit_budget);
    ("jit: memoization beats the naive search", `Quick, test_jit_memo_prunes);
    qcheck prop_jit_matches_enum;
    qcheck prop_jit_matches_naive_on_complete;
    ("backend: clean coop runs linearizable", `Quick, test_clean_runs_linearizable);
    ( "backend: mutant convicted, annotations stripped",
      `Quick,
      test_mutant_convicted_without_annotations );
    ( "backend: annotation mutant invisible to lin",
      `Quick,
      test_annotation_mutant_invisible );
    ("backend: exhaustive engine on small histories", `Quick, test_exhaustive_engine_small_history);
    ("backend: farm pass + lin.* metrics", `Quick, test_farm_pass_and_metrics);
    ("backend: examples agree with refinement", `Quick, test_examples_agreement);
  ]
