(* End-to-end tests: multiset implementations instrumented, executed under
   the deterministic engine, and checked for I/O and view refinement. *)

open Vyrd
open Vyrd_sched
open Vyrd_multiset

let spec = Multiset_spec.spec
let capacity = 16

(* Run a random workload against the vector multiset; returns the log. *)
let run_vector ?(bugs = []) ?(trailing_lookups = 0) ~seed ~threads ~ops ~keys () =
  let log = Log.create ~level:`View () in
  Coop.run ~seed (fun s ->
      let ctx = Instrument.make s log in
      let ms = Multiset_vector.create ~bugs ~capacity ctx in
      for t = 1 to threads do
        s.spawn (fun () ->
            let rng = Prng.create ((seed * 7919) + t) in
            for _ = 1 to ops do
              let x = Prng.int rng keys in
              match Prng.int rng 10 with
              | 0 | 1 | 2 -> ignore (Multiset_vector.insert ms x)
              | 3 | 4 -> ignore (Multiset_vector.insert_pair ms x (Prng.int rng keys))
              | 5 | 6 -> ignore (Multiset_vector.delete ms x)
              | 7 | 8 -> ignore (Multiset_vector.lookup ms x)
              | _ -> ignore (Multiset_vector.count ms x)
            done;
            for x = 0 to trailing_lookups - 1 do
              ignore (Multiset_vector.lookup ms (x mod keys))
            done)
      done);
  log

let run_btree ?(bugs = []) ?(compressor = false) ~seed ~threads ~ops ~keys () =
  let log = Log.create ~level:`View () in
  Coop.run ~seed (fun s ->
      let ctx = Instrument.make s log in
      let ms = Multiset_btree.create ~bugs ctx in
      let stop = ref false in
      if compressor then
        s.spawn (fun () ->
            while not !stop do
              Multiset_btree.compress ms;
              s.yield ()
            done);
      let remaining = ref threads in
      for t = 1 to threads do
        s.spawn (fun () ->
            let rng = Prng.create ((seed * 104729) + t) in
            for _ = 1 to ops do
              let x = Prng.int rng keys in
              match Prng.int rng 10 with
              | 0 | 1 | 2 | 3 -> ignore (Multiset_btree.insert ms x)
              | 4 | 5 -> ignore (Multiset_btree.delete ms x)
              | 6 | 7 -> ignore (Multiset_btree.lookup ms x)
              | _ -> ignore (Multiset_btree.count ms x)
            done;
            decr remaining;
            if !remaining = 0 then stop := true)
      done);
  log

let view_vector = Multiset_vector.viewdef ~capacity
let check_io log = Checker.check ~mode:`Io log spec
let check_view ?(view = view_vector) log = Checker.check ~mode:`View ~view log spec

let assert_pass what report =
  if not (Report.is_pass report) then
    Alcotest.failf "%s: expected pass, got %a" what Report.pp report

let assert_tag what expected report =
  Alcotest.(check string) what expected (Report.tag report)

(* --- correct implementations pass ---------------------------------- *)

let test_vector_correct_io () =
  for seed = 0 to 14 do
    let log = run_vector ~seed ~threads:4 ~ops:25 ~keys:8 () in
    assert_pass (Printf.sprintf "vector io seed %d" seed) (check_io log)
  done

let test_vector_correct_view () =
  for seed = 0 to 14 do
    let log = run_vector ~seed ~threads:4 ~ops:25 ~keys:8 () in
    assert_pass (Printf.sprintf "vector view seed %d" seed) (check_view log)
  done

let test_btree_correct () =
  for seed = 0 to 9 do
    let log = run_btree ~seed ~threads:4 ~ops:20 ~keys:6 () in
    assert_pass (Printf.sprintf "btree io seed %d" seed) (check_io log);
    assert_pass
      (Printf.sprintf "btree view seed %d" seed)
      (check_view ~view:Multiset_btree.viewdef log)
  done

let test_btree_with_compressor () =
  for seed = 0 to 9 do
    let log = run_btree ~compressor:true ~seed ~threads:3 ~ops:15 ~keys:4 () in
    assert_pass
      (Printf.sprintf "btree+compress view seed %d" seed)
      (check_view ~view:Multiset_btree.viewdef log)
  done

(* --- bugs are detected ---------------------------------------------- *)

let find_failing ~check ~run =
  let rec go seed =
    if seed > 300 then None
    else
      let log = run ~seed in
      let report = check log in
      if Report.is_pass report then go (seed + 1) else Some (seed, report)
  in
  go 0

let test_racy_find_slot_view_detected () =
  match
    find_failing ~check:check_view ~run:(fun ~seed ->
        run_vector ~bugs:[ Multiset_vector.Racy_find_slot ] ~seed ~threads:4 ~ops:25
          ~keys:4 ())
  with
  | None -> Alcotest.fail "racy find_slot never produced a view violation"
  | Some (_, report) -> assert_tag "view violation" "view" report

let test_racy_find_slot_io_detected () =
  match
    find_failing ~check:check_io ~run:(fun ~seed ->
        run_vector ~bugs:[ Multiset_vector.Racy_find_slot ] ~trailing_lookups:8 ~seed
          ~threads:4 ~ops:25 ~keys:4 ())
  with
  | None -> Alcotest.fail "racy find_slot never produced an I/O violation"
  | Some (_, report) -> (
    match report.Report.outcome with
    | Report.Fail (Report.Observer_violation _ | Report.Io_violation _) -> ()
    | _ -> Alcotest.failf "unexpected outcome %a" Report.pp report)

let test_view_detects_earlier_than_io () =
  (* The paper's Table 1 claim: on the same traces, view refinement detects
     the bug after fewer methods than I/O refinement.  Compare average
     methods-to-detection over seeds where both detect. *)
  let io_total = ref 0 and view_total = ref 0 and hits = ref 0 in
  for seed = 0 to 80 do
    let log =
      run_vector ~bugs:[ Multiset_vector.Racy_find_slot ] ~trailing_lookups:8 ~seed
        ~threads:4 ~ops:25 ~keys:4 ()
    in
    let io = check_io log and view = check_view log in
    if (not (Report.is_pass io)) && not (Report.is_pass view) then begin
      incr hits;
      io_total := !io_total + io.Report.stats.methods_checked;
      view_total := !view_total + view.Report.stats.methods_checked
    end
  done;
  Alcotest.(check bool) "bug triggered on several seeds" true (!hits > 3);
  Alcotest.(check bool)
    (Printf.sprintf "view (%d) detects no later than io (%d) on average" !view_total
       !io_total)
    true
    (!view_total <= !io_total)

let test_btree_unlock_parent_detected () =
  match
    find_failing
      ~check:(check_view ~view:Multiset_btree.viewdef)
      ~run:(fun ~seed ->
        run_btree ~bugs:[ Multiset_btree.Unlock_parent_early ] ~seed ~threads:4
          ~ops:20 ~keys:6 ())
  with
  | None -> Alcotest.fail "unlock-parent bug never detected"
  | Some (_, report) -> assert_tag "view violation" "view" report

(* --- white-box scenario tests (Fig. 3 / Fig. 6 semantics) ------------ *)

let ev_call tid mid args = Event.Call { tid; mid; args }
let ev_ret tid mid value = Event.Return { tid; mid; value }
let ev_commit tid = Event.Commit { tid }
let ev_write tid var value = Event.Write { tid; var; value }

let test_fig3_commit_order_serializes () =
  (* LookUp(3) starts before Insert(3) but commits after it: the witness
     interleaving orders Insert(3) first, so returning true is correct. *)
  let log =
    Log.of_events
      [
        ev_call 1 "lookup" [ Repr.Int 3 ];
        ev_call 2 "insert" [ Repr.Int 3 ];
        ev_commit 2;
        ev_ret 2 "insert" Repr.success;
        ev_ret 1 "lookup" (Repr.Bool true);
      ]
  in
  assert_pass "fig3 pass" (check_io log)

let test_fig3_delete_after_insert () =
  (* Commit order Insert(3); Delete(3): a LookUp(3) running after both must
     return false. *)
  let log =
    Log.of_events
      [
        ev_call 1 "insert" [ Repr.Int 3 ];
        ev_commit 1;
        ev_ret 1 "insert" Repr.success;
        ev_call 2 "delete" [ Repr.Int 3 ];
        ev_commit 2;
        ev_ret 2 "delete" (Repr.Bool true);
        ev_call 3 "lookup" [ Repr.Int 3 ];
        ev_ret 3 "lookup" (Repr.Bool true);
      ]
  in
  assert_tag "late lookup true is a violation" "observer" (check_io log)

let test_observer_window_is_bounded () =
  (* A lookup that returns true for an element inserted only after the
     lookup returned must fail. *)
  let log =
    Log.of_events
      [
        ev_call 1 "lookup" [ Repr.Int 9 ];
        ev_ret 1 "lookup" (Repr.Bool true);
        ev_call 2 "insert" [ Repr.Int 9 ];
        ev_commit 2;
        ev_ret 2 "insert" Repr.success;
      ]
  in
  assert_tag "lookup ahead of insert" "observer" (check_io log)

let test_delete_true_on_empty_is_violation () =
  let log =
    Log.of_events
      [
        ev_call 1 "delete" [ Repr.Int 5 ];
        ev_commit 1;
        ev_ret 1 "delete" (Repr.Bool true);
      ]
  in
  assert_tag "delete true on empty" "io" (check_io log)

let test_insert_pair_partial_view_violation () =
  (* Fig. 6's essence: insert_pair(5,6) commits but only 6 reaches the
     shadow state (5 was overwritten) — viewI <> viewS at the commit. *)
  let log =
    Log.of_events
      [
        ev_call 1 "insert_pair" [ Repr.Int 5; Repr.Int 6 ];
        ev_write 1 "A[0].elt" (Repr.Int 7);
        (* 5 lost: slot stolen *)
        ev_write 1 "A[1].elt" (Repr.Int 6);
        Event.Block_begin { tid = 1 };
        ev_write 1 "A[0].valid" (Repr.Bool true);
        ev_write 1 "A[1].valid" (Repr.Bool true);
        ev_commit 1;
        Event.Block_end { tid = 1 };
        ev_ret 1 "insert_pair" Repr.success;
      ]
  in
  assert_tag "partial pair" "view" (check_view log)

let test_commit_block_hides_dirty_state () =
  (* T2 commits while T1 sits mid-commit-block; T1's buffered write must not
     leak into viewI at T2's commit. *)
  let log =
    Log.of_events
      [
        ev_call 1 "insert_pair" [ Repr.Int 1; Repr.Int 2 ];
        ev_call 2 "insert" [ Repr.Int 3 ];
        ev_write 1 "A[0].elt" (Repr.Int 1);
        ev_write 1 "A[1].elt" (Repr.Int 2);
        ev_write 2 "A[2].elt" (Repr.Int 3);
        Event.Block_begin { tid = 1 };
        ev_write 1 "A[0].valid" (Repr.Bool true);
        (* context switch: T2 commits now; T1's half-published pair is
           invisible because the block buffers it *)
        ev_write 2 "A[2].valid" (Repr.Bool true);
        ev_commit 2;
        ev_ret 2 "insert" Repr.success;
        ev_write 1 "A[1].valid" (Repr.Bool true);
        ev_commit 1;
        Event.Block_end { tid = 1 };
        ev_ret 1 "insert_pair" Repr.success;
      ]
  in
  assert_pass "dirty state hidden" (check_view log)

let test_without_block_dirty_state_fails () =
  (* Same interleaving but without the commit block: T2's commit sees element
     1 without element 2 — the dirty state of §5.2 — and viewI <> viewS. *)
  let log =
    Log.of_events
      [
        ev_call 1 "insert_pair" [ Repr.Int 1; Repr.Int 2 ];
        ev_call 2 "insert" [ Repr.Int 3 ];
        ev_write 1 "A[0].elt" (Repr.Int 1);
        ev_write 1 "A[1].elt" (Repr.Int 2);
        ev_write 2 "A[2].elt" (Repr.Int 3);
        ev_write 1 "A[0].valid" (Repr.Bool true);
        ev_write 2 "A[2].valid" (Repr.Bool true);
        ev_commit 2;
        ev_ret 2 "insert" Repr.success;
        ev_write 1 "A[1].valid" (Repr.Bool true);
        ev_commit 1;
        ev_ret 1 "insert_pair" Repr.success;
      ]
  in
  assert_tag "dirty state visible" "view" (check_view log)

let test_misplaced_commit_flagged () =
  (* §4.1: a wrong commit-point annotation on correct code produces
     refinement violations — the signal to re-examine the annotation, not
     the implementation.  Insert committing at the slot reservation claims
     the element is published before the valid bit is set. *)
  let rec go seed =
    if seed > 200 then
      Alcotest.fail "misplaced commit never produced a violation"
    else
      let log =
        run_vector ~bugs:[ Multiset_vector.Misplaced_commit ] ~seed ~threads:4
          ~ops:25 ~keys:6 ()
      in
      let report = check_view log in
      if Report.is_pass report then go (seed + 1)
      else
        Alcotest.(check string) "view flags the wrong witness" "view"
          (Report.tag report)
  in
  go 0;
  (* single-threaded, even sequential runs are flagged: viewI at the early
     commit lacks the not-yet-valid element *)
  let log =
    run_vector ~bugs:[ Multiset_vector.Misplaced_commit ] ~seed:0 ~threads:1
      ~ops:10 ~keys:4 ()
  in
  Alcotest.(check string) "sequential run already flagged" "view"
    (Report.tag (check_view log))

let test_scanning_lookup_is_weakly_consistent () =
  (* Reproduction finding (DESIGN.md §5): the paper's per-slot scanning
     LookUp can answer false although the element was continuously present,
     when the element migrates from an unscanned to an already-scanned slot.
     VYRD's observer rule flags such runs.  Hand-crafted witness: x sits in
     slot 1; during T9's scan (which passed slot 0 while it was empty), a
     concurrent thread inserts x into slot 0 (commits) and then deletes the
     slot-1 occurrence (commits). *)
  let log =
    Log.of_events
      [
        ev_call 1 "insert" [ Repr.Int 7 ];
        ev_write 1 "A[1].elt" (Repr.Int 7);
        ev_write 1 "A[1].valid" (Repr.Bool true);
        ev_commit 1;
        ev_ret 1 "insert" Repr.success;
        ev_call 9 "lookup" [ Repr.Int 7 ];
        (* T9 scans slot 0: empty.  Now x moves to slot 0. *)
        ev_call 2 "insert" [ Repr.Int 7 ];
        ev_write 2 "A[0].elt" (Repr.Int 7);
        ev_write 2 "A[0].valid" (Repr.Bool true);
        ev_commit 2;
        ev_ret 2 "insert" Repr.success;
        ev_call 3 "delete" [ Repr.Int 7 ];
        ev_write 3 "A[1].valid" (Repr.Bool false);
        ev_commit 3;
        ev_write 3 "A[1].elt" Repr.Unit;
        ev_ret 3 "delete" (Repr.Bool true);
        (* T9 reaches slot 1: empty again — answers false. *)
        ev_ret 9 "lookup" (Repr.Bool false);
      ]
  in
  (* x = 7 is in the multiset in every state of T9's window, so the scan's
     false answer is a refinement violation — correctly reported. *)
  assert_tag "weak scan flagged" "observer" (check_io log);
  (* The snapshot lookup of the shipped implementation cannot produce this
     trace; the subject soak (dev/soak.exe) keeps it clean across seeds. *)
  for seed = 0 to 4 do
    let log = run_vector ~seed ~threads:6 ~ops:40 ~keys:4 () in
    assert_pass (Printf.sprintf "snapshot observers seed %d" seed) (check_io log)
  done

(* --- ill-formedness diagnostics -------------------------------------- *)

let test_ill_formed_double_commit () =
  let log =
    Log.of_events
      [
        ev_call 1 "insert" [ Repr.Int 3 ];
        ev_commit 1;
        ev_commit 1;
        ev_ret 1 "insert" Repr.success;
      ]
  in
  assert_tag "double commit" "ill-formed" (check_io log)

let test_missing_commit_is_violation () =
  (* An execution of a mutator with no commit action performed no
     transition; returning success is then inconsistent with every state in
     its window. *)
  let log =
    Log.of_events
      [ ev_call 1 "insert" [ Repr.Int 3 ]; ev_ret 1 "insert" Repr.success ]
  in
  assert_tag "missing commit" "observer" (check_io log);
  (* ... but a failure return without a commit is fine (exceptional
     termination mutates nothing). *)
  let log =
    Log.of_events
      [ ev_call 1 "insert" [ Repr.Int 3 ]; ev_ret 1 "insert" Repr.failure ]
  in
  assert_pass "failure without commit" (check_io log)

let test_ill_formed_commit_outside () =
  let log = Log.of_events [ ev_commit 1 ] in
  assert_tag "commit outside method" "ill-formed" (check_io log)

let test_ill_formed_nested_call () =
  let log =
    Log.of_events [ ev_call 1 "insert" [ Repr.Int 1 ]; ev_call 1 "insert" [ Repr.Int 2 ] ]
  in
  assert_tag "nested call" "ill-formed" (check_io log)

(* --- the atomized implementation as specification (§4.4) ------------- *)

let test_atomized_spec_agrees () =
  for seed = 0 to 9 do
    let log = run_vector ~seed ~threads:4 ~ops:20 ~keys:6 () in
    let a = Checker.check ~mode:`Io log spec in
    let b = Checker.check ~mode:`Io log Multiset_seq.spec in
    Alcotest.(check string)
      (Printf.sprintf "same verdict seed %d" seed)
      (Report.tag a) (Report.tag b)
  done;
  let bad =
    Log.of_events
      [
        ev_call 1 "delete" [ Repr.Int 5 ];
        ev_commit 1;
        ev_ret 1 "delete" (Repr.Bool true);
      ]
  in
  assert_tag "atomized rejects bad delete" "io"
    (Checker.check ~mode:`Io bad Multiset_seq.spec)

let test_atomized_view_agrees () =
  for seed = 0 to 5 do
    let log = run_vector ~seed ~threads:3 ~ops:15 ~keys:5 () in
    assert_pass
      (Printf.sprintf "atomized view seed %d" seed)
      (Checker.check ~mode:`View ~view:view_vector log Multiset_seq.spec)
  done

let suite =
  [
    ("vector correct: io refinement", `Quick, test_vector_correct_io);
    ("vector correct: view refinement", `Quick, test_vector_correct_view);
    ("btree correct", `Quick, test_btree_correct);
    ("btree with compression thread", `Quick, test_btree_with_compressor);
    ("racy find_slot: view detects", `Quick, test_racy_find_slot_view_detected);
    ("racy find_slot: io detects", `Quick, test_racy_find_slot_io_detected);
    ("view detects earlier than io", `Slow, test_view_detects_earlier_than_io);
    ("btree unlock-parent bug detected", `Quick, test_btree_unlock_parent_detected);
    ("fig3: commit order serializes", `Quick, test_fig3_commit_order_serializes);
    ("fig3: delete after insert", `Quick, test_fig3_delete_after_insert);
    ("observer window bounded", `Quick, test_observer_window_is_bounded);
    ("delete true on empty", `Quick, test_delete_true_on_empty_is_violation);
    ("fig6: partial insert_pair", `Quick, test_insert_pair_partial_view_violation);
    ("commit block hides dirty state", `Quick, test_commit_block_hides_dirty_state);
    ("no commit block: dirty state fails", `Quick, test_without_block_dirty_state_fails);
    ("misplaced commit point flagged (§4.1)", `Quick, test_misplaced_commit_flagged);
    ( "scanning lookup weakly consistent",
      `Quick,
      test_scanning_lookup_is_weakly_consistent );
    ("ill-formed: double commit", `Quick, test_ill_formed_double_commit);
    ("missing commit is a violation", `Quick, test_missing_commit_is_violation);
    ("ill-formed: commit outside method", `Quick, test_ill_formed_commit_outside);
    ("ill-formed: nested call", `Quick, test_ill_formed_nested_call);
    ("atomized spec agrees (io)", `Quick, test_atomized_spec_agrees);
    ("atomized spec agrees (view)", `Quick, test_atomized_view_agrees);
  ]
