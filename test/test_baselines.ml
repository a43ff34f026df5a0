(* Tests for the two baselines: naive linearization search (the brute-force
   {!Vyrd_lin.Enum}) and Atomizer-style reduction (paper §2 and §8). *)

open Vyrd
open Vyrd_sched
open Vyrd_multiset
open Vyrd_baselines
module Enum = Vyrd_lin.Enum
module History = Vyrd_lin.History
module Jit = Vyrd_lin.Jit

let ev_call tid mid args = Event.Call { tid; mid; args }
let ev_ret tid mid value = Event.Return { tid; mid; value }
let ev_commit tid = Event.Commit { tid }

(* --- naive linearization ------------------------------------------------ *)

let naive ?budget log = Enum.check ?budget (History.of_log log) Multiset_spec.spec

let test_linearize_fig3 () =
  (* LookUp(3) overlapping Insert(3): true is justified by serializing the
     insert first, even without commit annotations. *)
  let log =
    Log.of_events
      [
        ev_call 1 "lookup" [ Repr.Int 3 ];
        ev_call 2 "insert" [ Repr.Int 3 ];
        ev_ret 2 "insert" Repr.success;
        ev_ret 1 "lookup" (Repr.Bool true);
      ]
  in
  match naive log with
  | Jit.Linearizable, _ -> ()
  | _, n -> Alcotest.failf "expected linearizable, explored %d" n

let test_linearize_rejects () =
  (* lookup strictly after a delete must not see the element *)
  let log =
    Log.of_events
      [
        ev_call 1 "insert" [ Repr.Int 3 ];
        ev_ret 1 "insert" Repr.success;
        ev_call 2 "delete" [ Repr.Int 3 ];
        ev_ret 2 "delete" (Repr.Bool true);
        ev_call 3 "lookup" [ Repr.Int 3 ];
        ev_ret 3 "lookup" (Repr.Bool true);
      ]
  in
  match naive log with
  | Jit.Not_linearizable, _ -> ()
  | _, n -> Alcotest.failf "expected not linearizable (%d explored)" n

(* [k] fully-overlapping insert(i) executions plus an overlapping lookup
   whose return value is wrong in every serialization: certifying the
   violation forces the search to visit the whole permutation tree (~ e·k!
   nodes), which is the paper's "4! ways" blow-up. *)
let overlapping_inserts k =
  let calls = List.init k (fun i -> ev_call (i + 1) "insert" [ Repr.Int i ]) in
  let rets = List.init k (fun i -> ev_ret (i + 1) "insert" Repr.success) in
  Log.of_events
    ([ ev_call 99 "lookup" [ Repr.Int 999 ] ]
    @ calls @ rets
    @ [ ev_ret 99 "lookup" (Repr.Bool true) ])

let test_linearize_cost_grows () =
  let cost k = snd (naive (overlapping_inserts k)) in
  let c4 = cost 4 and c6 = cost 6 and c8 = cost 8 in
  Alcotest.(check bool)
    (Printf.sprintf "super-linear growth: %d -> %d -> %d" c4 c6 c8)
    true
    (c6 > 8 * c4 && c8 > 8 * c6)

let test_naive_costs_pinned () =
  (* E7's naive column (bench ablation-naive), k = 2..8 *)
  Alcotest.(check (list int))
    "transitions explored"
    [ 9; 31; 129; 651; 3913; 27399; 219201 ]
    (List.init 7 (fun i -> snd (naive (overlapping_inserts (i + 2)))))

let test_vyrd_cost_stays_linear () =
  (* the same trace, annotated with commits, is checked by VYRD in one pass:
     methods processed = k + 1 regardless of overlap *)
  let k = 8 in
  let calls = List.init k (fun i -> ev_call (i + 1) "insert" [ Repr.Int i ]) in
  let commits_rets =
    List.concat (List.init k (fun i -> [ ev_commit (i + 1); ev_ret (i + 1) "insert" Repr.success ]))
  in
  let log =
    Log.of_events
      (calls @ commits_rets
      @ [ ev_call 99 "lookup" [ Repr.Int 0 ]; ev_ret 99 "lookup" (Repr.Bool true) ])
  in
  let report = Checker.check ~mode:`Io log Multiset_spec.spec in
  Alcotest.(check bool) "passes" true (Report.is_pass report);
  Alcotest.(check int) "one transition per method" (k + 1)
    report.Report.stats.methods_checked

let test_linearize_budget () =
  match naive ~budget:50 (overlapping_inserts 10) with
  | Jit.Budget_exhausted, n -> Alcotest.(check bool) "cost counted" true (n > 50)
  | _, n -> Alcotest.failf "expected budget exhaustion, got %d" n

(* --- reduction / atomicity ---------------------------------------------- *)

let multiset_full_log ~seed =
  let log = Log.create ~level:`Full () in
  Coop.run ~seed (fun s ->
      let ctx = Instrument.make s log in
      let ms = Multiset_vector.create ~capacity:8 ctx in
      for t = 1 to 3 do
        s.spawn (fun () ->
            let rng = Prng.create (seed + (31 * t)) in
            for _ = 1 to 10 do
              let x = Prng.int rng 5 in
              match Prng.int rng 4 with
              | 0 -> ignore (Multiset_vector.insert ms x)
              | 1 -> ignore (Multiset_vector.insert_pair ms x (x + 1))
              | 2 -> ignore (Multiset_vector.delete ms x)
              | _ -> ignore (Multiset_vector.lookup ms x)
            done)
      done);
  log

let test_reduction_rejects_insert_pair () =
  (* §8: the correct insert_pair cannot be proven atomic by reduction —
     it acquires locks again after releasing others — although refinement
     checking accepts the very same log. *)
  let log = multiset_full_log ~seed:0 in
  let r = Reduction.analyze log in
  Alcotest.(check bool) "insert_pair not reducible" false
    (Reduction.method_atomic r "insert_pair");
  Alcotest.(check bool) "insert not reducible" false (Reduction.method_atomic r "insert");
  let refinement = Checker.check ~mode:`Io log Multiset_spec.spec in
  Alcotest.(check bool) "refinement accepts the same trace" true
    (Report.is_pass refinement)

let test_reduction_accepts_snapshot_lookup () =
  let log = multiset_full_log ~seed:1 in
  let r = Reduction.analyze log in
  Alcotest.(check bool) "lookup reducible" true (Reduction.method_atomic r "lookup")

let test_reduction_lockset_finds_races () =
  (* the buggy find_slot reads slots without their lock: the elt variables
     must show up as racy *)
  let log = Log.create ~level:`Full () in
  Coop.run ~seed:3 (fun s ->
      let ctx = Instrument.make s log in
      let ms =
        Multiset_vector.create ~bugs:[ Multiset_vector.Racy_find_slot ] ~capacity:8 ctx
      in
      for t = 1 to 3 do
        s.spawn (fun () ->
            let rng = Prng.create (100 + t) in
            for _ = 1 to 10 do
              ignore (Multiset_vector.insert ms (Prng.int rng 5))
            done)
      done);
  let r = Reduction.analyze log in
  Alcotest.(check bool) "some elt variable is racy" true
    (List.exists
       (fun v -> String.length v > 4 && String.sub v (String.length v - 4) 4 = ".elt")
       r.racy_vars)

let test_reduction_wpwq_pattern () =
  (* the §8 example: two methods each performing two lock-protected writes,
     releasing between them — every variable is consistently locked (no
     races) yet neither execution is reducible *)
  let acq tid lock = Event.Acquire { tid; lock }
  and rel tid lock = Event.Release { tid; lock }
  and wr tid var = Event.Write { tid; var; value = Repr.Int 0 } in
  let meth tid =
    [
      ev_call tid "m" [];
      acq tid "lp"; wr tid "p"; rel tid "lp";
      acq tid "lq"; wr tid "q"; rel tid "lq";
      ev_ret tid "m" Repr.Unit;
    ]
  in
  let log = Log.of_events (meth 1 @ meth 2) in
  let r = Reduction.analyze log in
  Alcotest.(check (list string)) "no races" [] r.racy_vars;
  Alcotest.(check bool) "yet not reducible" false (Reduction.method_atomic r "m")

let suite =
  [
    ("linearize: fig3 accepted", `Quick, test_linearize_fig3);
    ("linearize: bad trace rejected", `Quick, test_linearize_rejects);
    ("linearize: cost grows super-linearly", `Quick, test_linearize_cost_grows);
    ("linearize: E7 costs pinned for k = 2..8", `Quick, test_naive_costs_pinned);
    ("vyrd: cost stays linear", `Quick, test_vyrd_cost_stays_linear);
    ("linearize: budget guard", `Quick, test_linearize_budget);
    ("reduction rejects insert_pair (§8)", `Quick, test_reduction_rejects_insert_pair);
    ("reduction accepts snapshot lookup", `Quick, test_reduction_accepts_snapshot_lookup);
    ("reduction lockset finds races", `Quick, test_reduction_lockset_finds_races);
    ("reduction: W(p)W(q) pattern (§8)", `Quick, test_reduction_wpwq_pattern);
  ]
