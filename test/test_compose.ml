(* Compositional checking: a multiset and a java.util.Vector exercised by
   the same program, verified in one refinement run against the product
   specification. *)

open Vyrd
open Vyrd_sched
open Vyrd_multiset
open Vyrd_jlib

let capacity = 8

let spec = Spec_compose.pair Multiset_spec.spec Vector.spec

(* Variable spaces collide on "A[i]..." vs vector's "elem[i]"/"count" —
   disjoint as required. *)
let view =
  Spec_compose.pair_views
    (Multiset_vector.viewdef ~capacity)
    (Vector.viewdef ~capacity)

let run_both ?(ms_bugs = []) ~seed () =
  let log = Log.create ~level:`View () in
  Coop.run ~seed (fun s ->
      let ctx = Instrument.make s log in
      let ms = Multiset_vector.create ~bugs:ms_bugs ~capacity ctx in
      let v = Vector.create ~capacity ctx in
      for t = 1 to 4 do
        s.spawn (fun () ->
            let rng = Prng.create (seed + (19 * t)) in
            for _ = 1 to 15 do
              let x = Prng.int rng 5 in
              match Prng.int rng 8 with
              | 0 | 1 -> ignore (Multiset_vector.insert ms x)
              | 2 -> ignore (Multiset_vector.delete ms x)
              | 3 -> ignore (Multiset_vector.lookup ms x)
              | 4 | 5 -> ignore (Vector.add v x)
              | 6 -> ignore (Vector.remove_last v)
              | _ -> ignore (Vector.size v)
            done)
      done);
  log

let assert_pass what report =
  if not (Report.is_pass report) then
    Alcotest.failf "%s: expected pass, got %a" what Report.pp report

let test_composite_correct () =
  for seed = 0 to 9 do
    let log = run_both ~seed () in
    assert_pass
      (Printf.sprintf "composite io seed %d" seed)
      (Checker.check ~mode:`Io log spec);
    assert_pass
      (Printf.sprintf "composite view seed %d" seed)
      (Checker.check ~mode:`View ~view log spec)
  done

let test_composite_detects_component_bug () =
  (* a bug in one component must surface through the product spec *)
  let rec go seed =
    if seed > 300 then Alcotest.fail "component bug never detected"
    else
      let log = run_both ~ms_bugs:[ Multiset_vector.Racy_find_slot ] ~seed () in
      let report = Checker.check ~mode:`View ~view log spec in
      if Report.is_pass report then go (seed + 1)
  in
  go 0

let test_composite_routes_methods () =
  (* methods are routed by name: multiset "insert" vs vector "add" *)
  let log =
    Log.of_events
      [
        Event.Call { tid = 1; mid = "insert"; args = [ Repr.Int 3 ] };
        Event.Commit { tid = 1 };
        Event.Return { tid = 1; mid = "insert"; value = Repr.success };
        Event.Call { tid = 2; mid = "add"; args = [ Repr.Int 9 ] };
        Event.Commit { tid = 2 };
        Event.Return { tid = 2; mid = "add"; value = Repr.success };
        Event.Call { tid = 1; mid = "lookup"; args = [ Repr.Int 3 ] };
        Event.Return { tid = 1; mid = "lookup"; value = Repr.Bool true };
        Event.Call { tid = 2; mid = "size"; args = [] };
        Event.Return { tid = 2; mid = "size"; value = Repr.Int 1 };
      ]
  in
  assert_pass "routing" (Checker.check ~mode:`Io log spec);
  (* cross-component confusion is a violation: vector must not see the
     multiset's element *)
  let bad =
    Log.of_events
      [
        Event.Call { tid = 1; mid = "insert"; args = [ Repr.Int 3 ] };
        Event.Commit { tid = 1 };
        Event.Return { tid = 1; mid = "insert"; value = Repr.success };
        Event.Call { tid = 2; mid = "size"; args = [] };
        Event.Return { tid = 2; mid = "size"; value = Repr.Int 1 };
      ]
  in
  Alcotest.(check string) "components are independent" "observer"
    (Report.tag (Checker.check ~mode:`Io bad spec))

let test_composite_unknown_method_ill_formed () =
  let log =
    Log.of_events [ Event.Call { tid = 1; mid = "frobnicate"; args = [] } ]
  in
  Alcotest.(check string) "unknown method" "ill-formed"
    (Report.tag (Checker.check ~mode:`Io log spec))

(* --- the three-way product of the benchmark ------------------------------ *)

module Harness = Vyrd_harness.Harness
module Workload = Vyrd_harness.Workload

let three ?(bug = false) seed =
  Workload.v ~bug Workload.composite
    ~config:{ Harness.threads = 4; ops_per_thread = 40; key_pool = 8; key_range = 16; seed;
              log_level = `View }

let three_log ~bug seed = Workload.log (three ~bug seed)

let test_routing_memo () =
  let spec, _ = Workload.product (three 0) in
  let module P = (val spec) in
  let raises mid =
    match P.meth mid with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  for round = 1 to 2 do
    List.iter
      (fun (mid, kind) ->
        Alcotest.(check bool)
          (Printf.sprintf "round %d: %s routed" round mid)
          true (P.kind (P.meth mid) = kind))
      [ ("insert", Spec.Mutator); ("add", Spec.Mutator); ("size", Spec.Observer);
        ("append_str", Spec.Mutator); ("char_at", Spec.Observer) ];
    Alcotest.(check bool) (Printf.sprintf "round %d: unknown raises" round) true (raises "frobnicate")
  done

(* One product spec value shared by checkers on two domains at once (as the
   farm lanes and the benchmark's set-up do) gives the verdicts of checking
   alone, and so does the from-scratch reference. *)
let test_shared_spec_across_domains () =
  let spec, view = Workload.product (three 0) in
  let logs =
    Array.init 16 (fun i -> three_log ~bug:(i mod 2 = 1) (i + 1))
  in
  let verdicts spec order =
    List.map
      (fun i ->
        let report, idx = Checker.check_indexed ~mode:`View ~view logs.(i) spec in
        (i, Report.tag report, idx))
      order
    |> List.sort compare
  in
  let forward = List.init (Array.length logs) Fun.id in
  let alone = verdicts (fst (Workload.product (three 0))) forward in
  Alcotest.(check bool) "some seeded fault is convicted" true
    (List.exists (fun (_, tag, _) -> tag <> "pass") alone);
  let other = Domain.spawn (fun () -> verdicts spec (List.rev forward)) in
  let here = verdicts spec forward in
  let there = Domain.join other in
  let show = List.map (fun (i, tag, idx) ->
      Printf.sprintf "%d:%s@%s" i tag (match idx with Some n -> string_of_int n | None -> "-"))
  in
  Alcotest.(check (list string)) "this domain" (show alone) (show here);
  Alcotest.(check (list string)) "other domain" (show alone) (show there);
  Array.iteri
    (fun i log ->
      Alcotest.(check bool)
        (Printf.sprintf "reference agrees on log %d" i)
        true
        (Reference.agrees_with_checker_indexed ~view log spec))
    logs

(* Both the multiset specification and its atomized twin know "insert":
   the product resolves it to the left component, every time. *)
let overlap = Spec_compose.pair Multiset_spec.spec Multiset_seq.spec

let test_overlap_routes_left () =
  let module P = (val overlap) in
  let module A = (val Multiset_spec.spec) in
  let module B = (val Multiset_seq.spec) in
  let insert3 s ~mid = Result.get_ok (s ~mid ~args:[ Repr.Int 3 ] ~ret:Repr.success) in
  let want =
    Repr.Pair
      ( A.view (insert3 (A.apply (A.init ())) ~mid:(A.meth "insert")),
        B.view (B.init ()) )
  in
  for round = 1 to 2 do
    let s = insert3 (P.apply (P.init ())) ~mid:(P.meth "insert") in
    Alcotest.(check string)
      (Printf.sprintf "round %d: insert changed the left view only" round)
      (Repr.to_string want) (Repr.to_string (P.view s));
    Alcotest.(check bool)
      (Printf.sprintf "round %d: unknown raises" round)
      true
      (match P.meth "frobnicate" with _ -> false | exception Invalid_argument _ -> true)
  done

(* The farm's router follows the same rule across shards: a name several
   shards know goes to the first, and a name no shard knows goes to lane 0
   at every call, where its checker reports the ill-formed log. *)
let test_farm_overlap_first_shard () =
  let farm =
    Vyrd_pipeline.Farm.start ~level:`Full
      [ Vyrd_pipeline.Farm.shard "left" Multiset_spec.spec;
        Vyrd_pipeline.Farm.shard "right" Multiset_seq.spec ]
  in
  List.iter (Vyrd_pipeline.Farm.feed farm)
    [ Event.Call { tid = 1; mid = "insert"; args = [ Repr.Int 3 ] };
      Event.Commit { tid = 1 };
      Event.Return { tid = 1; mid = "insert"; value = Repr.success };
      Event.Call { tid = 2; mid = "frobnicate"; args = [] };
      Event.Call { tid = 3; mid = "frobnicate"; args = [] } ];
  let r = Vyrd_pipeline.Farm.finish farm in
  let shard name =
    List.find (fun (sr : Vyrd_pipeline.Farm.shard_result) -> sr.sr_name = name)
      r.Vyrd_pipeline.Farm.shards
  in
  let left = shard "left" and right = shard "right" in
  Alcotest.(check int) "left lane got every event" 5 left.sr_events;
  Alcotest.(check int) "right lane got none" 0 right.sr_events;
  Alcotest.(check (list (pair string int))) "insert checked on the left"
    [ ("insert", 1) ] left.sr_report.Report.stats.Report.per_method;
  Alcotest.(check string) "unknown name is ill-formed on lane 0" "ill-formed"
    (Report.tag left.sr_report);
  Alcotest.(check (option int)) "at its first call" (Some 3) left.sr_fail_index

(* Names decoded from text are fresh strings, never physically shared with
   the names the program logged: resolving them by contents must give the
   same verdict, index and statistics. *)
let test_fresh_name_strings () =
  let spec, view = Workload.product (three 0) in
  let render (r, idx) =
    let s = r.Report.stats in
    Printf.sprintf "%s@%s methods=%d events=%d per_method=%s" (Report.tag r)
      (match idx with Some i -> string_of_int i | None -> "-")
      s.Report.methods_checked s.Report.events_processed
      (String.concat ","
         (List.map (fun (m, n) -> Printf.sprintf "%s:%d" m n) s.Report.per_method))
  in
  let convicted = ref 0 in
  List.iter
    (fun (bug, seed) ->
      let log = three_log ~bug seed in
      let fresh =
        Log.of_events (List.map (fun ev -> Event.of_line (Event.to_line ev)) (Log.events log))
      in
      List.iter
        (fun (mode, what) ->
          let shared = render (Checker.check_indexed ~mode ~view log spec) in
          let copied = render (Checker.check_indexed ~mode ~view fresh spec) in
          if not (String.starts_with ~prefix:"pass" shared) then incr convicted;
          Alcotest.(check string)
            (Printf.sprintf "bug=%b seed=%d %s" bug seed what)
            shared copied)
        [ (`Io, "io"); (`View, "view") ])
    [ (false, 1); (false, 2); (true, 1); (true, 2); (true, 3) ];
  Alcotest.(check bool) "the bug seeds convict" true (!convicted > 0)

(* The incremental view definitions against the oracles they replaced
   ([View_oracles]), on random composite logs with and without the
   subjects' bugs.  At every commit event, the memoized viewI of a replay
   fed the log equals, and prints as, the oracle view computed from
   scratch; halfway through, the replay is restored from its own snapshot,
   which drops every lookup trail.  Every specification view the checker
   takes equals, and prints as, the oracle specification view of the same
   state.  A checker on the oracle definitions gives the same report and
   first-violation index, viewI and viewS included, and so does a checker
   restored from a [Checker.snapshot] taken at a seeded cut. *)
let incremental_views_equal_oracles =
  let open QCheck2.Gen in
  let gen = triple (int_range 1 100_000) bool (float_bound_inclusive 1.) in
  let print (seed, bug, cut) = Printf.sprintf "seed %d, bug %b, cut at %.3f" seed bug cut in
  (* the sizes [Subjects] gives the composite's subjects *)
  let ms_view = View_oracles.multiset_vector_viewdef ~capacity:32 in
  let sb_view = View_oracles.string_buffer_viewdef ~buffers:3 ~buf_capacity:64 in
  let oracle_view = View.Pair (View.Pair (ms_view, Vector.viewdef ~capacity:64), sb_view) in
  let rec from_scratch lookup = function
    | View.Full f -> f lookup
    | View.Pair (a, b) -> Repr.Pair (from_scratch lookup a, from_scratch lookup b)
    | View.Keyed _ -> invalid_arg "the oracle views are Full"
  in
  let mismatches = ref [] in
  let differ what a b =
    if not (Repr.equal a b && Repr.to_string a = Repr.to_string b) then
      mismatches := Printf.sprintf "%s: %s vs %s" what (Repr.to_string a) (Repr.to_string b)
                    :: !mismatches
  in
  (* [spec] with its view replaced by [view], given the state's saved form
     and the view it had *)
  let with_view (spec : Spec.t) f : Spec.t =
    let module S = (val spec) in
    (module struct
      include S

      let view st = f (S.save st) (S.view st)
    end)
  in
  let checked oracle spec =
    with_view spec (fun saved v ->
        differ "viewS" v (oracle saved);
        v)
  in
  let oracle oracle spec = with_view spec (fun saved _ -> oracle saved) in
  let ms saved = View_oracles.(multiset_spec_view (multiset_of_saved saved)) in
  let sb saved = View_oracles.(string_buffer_spec_view (string_buffer_of_saved saved)) in
  let product make =
    Spec_compose.pair
      (Spec_compose.pair (make ms Multiset_spec.spec) Vector.spec)
      (make sb (String_buffer.spec ~buffers:3))
  in
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 28 |])
    (QCheck2.Test.make ~name:"incremental views = oracle views at every commit" ~count:24
       ~print gen (fun (seed, bug, frac) ->
         mismatches := [];
         let _, view = Workload.product (three 0) in
         let log = three_log ~bug seed in
         let events = Log.snapshot log in
         let n = Array.length events in
         let replay = Replay.create () and eval = View.make_eval view in
         Array.iteri
           (fun i ev ->
             if i = n / 2 then Replay.restore replay (Replay.snapshot replay);
             match ev with
             | Event.Write { tid; var; value } -> Replay.write replay tid var value
             | Event.Block_begin { tid } -> Replay.block_begin replay tid
             | Event.Block_end { tid } -> Replay.block_end replay tid
             | Event.Commit { tid } ->
               Replay.commit replay tid;
               differ
                 (Printf.sprintf "viewI at event %d" i)
                 (View.recompute eval replay)
                 (from_scratch (Replay.lookup replay) oracle_view)
             | _ -> ())
           events;
         let spec = product checked in
         let report = Checker.check_indexed ~mode:`View ~view log spec in
         let reference = Checker.check_indexed ~mode:`View ~view:oracle_view log (product oracle) in
         (* the cut falls before the first violation, where a snapshot exists *)
         let cut = int_of_float (frac *. float_of_int (Option.value (snd report) ~default:n)) in
         let prefix = Checker.create ~mode:`View ~view spec in
         for i = 0 to cut - 1 do
           ignore (Checker.feed prefix events.(i))
         done;
         let resumed = Checker.create ~mode:`View ~view spec in
         (match Checker.snapshot prefix with
         | Some st -> Checker.restore resumed st
         | None -> mismatches := "no snapshot" :: !mismatches);
         let fail = ref None in
         for i = cut to n - 1 do
           match Checker.feed resumed events.(i) with
           | Some _ when !fail = None -> fail := Some i
           | _ -> ()
         done;
         let resumed = (Checker.report resumed, !fail) in
         if report <> reference then mismatches := "report vs oracle report" :: !mismatches;
         if resumed <> report then mismatches := "resumed report vs straight" :: !mismatches;
         match !mismatches with
         | [] -> true
         | m -> QCheck2.Test.fail_reportf "%s" (String.concat "\n" (List.rev m))))

let suite =
  [
    ("composite correct", `Quick, test_composite_correct);
    ("composite detects component bug", `Quick, test_composite_detects_component_bug);
    ("composite routes methods", `Quick, test_composite_routes_methods);
    ("composite rejects unknown methods", `Quick, test_composite_unknown_method_ill_formed);
    ("routing memo keeps unknown methods raising", `Quick, test_routing_memo);
    ("shared product spec on two domains", `Quick, test_shared_spec_across_domains);
    ("a name both components know routes left", `Quick, test_overlap_routes_left);
    ("farm routes a shared name to the first shard", `Quick, test_farm_overlap_first_shard);
    ("verdicts and stats do not depend on shared name strings", `Quick,
      test_fresh_name_strings);
    incremental_views_equal_oracles;
  ]
