(* Tests for the §7.1 harness and the subject registry. *)

open Vyrd
open Vyrd_harness

let assert_pass what report =
  if not (Report.is_pass report) then
    Alcotest.failf "%s: expected pass, got %a" what Report.pp report

let small seed =
  { Harness.default with threads = 3; ops_per_thread = 15; key_pool = 8; key_range = 12; seed }

let test_all_subjects_correct () =
  List.iter
    (fun (s : Subjects.t) ->
      for seed = 0 to 4 do
        let log = Harness.run (small seed) (s.build ~bug:false) in
        assert_pass
          (Printf.sprintf "%s io seed %d" s.name seed)
          (Checker.check ~mode:`Io log s.spec);
        assert_pass
          (Printf.sprintf "%s view seed %d" s.name seed)
          (Checker.check ~mode:`View ~view:s.view ~invariants:s.invariants log s.spec)
      done)
    Subjects.all

let test_all_subjects_buggy_detected () =
  (* every subject's injected bug must be caught by view refinement within a
     bounded seed sweep *)
  List.iter
    (fun (s : Subjects.t) ->
      let rec go seed =
        if seed > 500 then
          Alcotest.failf "%s: bug never detected within 500 seeds" s.name
        else
          let log =
            Harness.run
              { (small seed) with threads = 5; ops_per_thread = 25 }
              (s.build ~bug:true)
          in
          let r = Checker.check ~mode:`View ~view:s.view log s.spec in
          if Report.is_pass r then go (seed + 1)
      in
      go 0)
    Subjects.all

let test_determinism () =
  let subject = Subjects.multiset_vector in
  let events seed =
    Log.events (Harness.run (small seed) (subject.build ~bug:false))
  in
  Alcotest.(check bool) "same seed, same log" true (events 3 = events 3);
  Alcotest.(check bool) "different seed, different log" true (events 3 <> events 4)

let test_native_engine_run () =
  (* the native engine is not deterministic; just require a well-formed
     passing run of a correct subject *)
  let subject = Subjects.multiset_vector in
  let log =
    Harness.run ~native:true
      { Harness.default with threads = 4; ops_per_thread = 20 }
      (subject.build ~bug:false)
  in
  assert_pass "native run" (Checker.check ~mode:`View ~view:subject.view log subject.spec)

let test_log_levels_filter () =
  let subject = Subjects.multiset_vector in
  let count level =
    let cfg = { (small 1) with log_level = level } in
    Log.length (Harness.run cfg (subject.build ~bug:false))
  in
  let none = count `None and io = count `Io and view = count `View and full = count `Full in
  Alcotest.(check int) "level `None logs nothing" 0 none;
  Alcotest.(check bool) "io < view" true (io < view);
  Alcotest.(check bool) "view < full" true (view < full)

let suite =
  [
    ("all subjects pass when correct", `Slow, test_all_subjects_correct);
    ("all subject bugs detected", `Slow, test_all_subjects_buggy_detected);
    ("harness is deterministic", `Quick, test_determinism);
    ("native engine run", `Quick, test_native_engine_run);
    ("log levels filter events", `Quick, test_log_levels_filter);
  ]
