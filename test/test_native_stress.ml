(* Engine-independence: every subject, correct variant, under real system
   threads.  Non-deterministic by nature, so only the verdict is asserted —
   a correct implementation must pass refinement checking regardless of the
   interleavings the operating system produces. *)

open Vyrd
open Vyrd_harness

let assert_pass what report =
  if not (Report.is_pass report) then
    Alcotest.failf "%s: expected pass, got %a" what Report.pp report

let test_all_subjects_native () =
  List.iter
    (fun (s : Subjects.t) ->
      let cfg =
        { Harness.default with threads = 4; ops_per_thread = 25; key_pool = 10;
          key_range = 16; seed = 11 }
      in
      let log = Harness.run ~native:true cfg (s.build ~bug:false) in
      assert_pass
        (Printf.sprintf "%s native io" s.name)
        (Checker.check ~mode:`Io log s.spec);
      assert_pass
        (Printf.sprintf "%s native view" s.name)
        (Checker.check ~mode:`View ~view:s.view ~invariants:s.invariants log s.spec))
    Subjects.all

let test_online_native () =
  (* online checking while the program runs under real threads *)
  let s = Subjects.blink_tree in
  let log = Log.create ~level:`View () in
  let online =
    Vyrd_pipeline.Farm.start ~level:`View
      [ Vyrd_pipeline.Farm.shard ~mode:`View ~view:s.view s.name s.spec ]
  in
  Vyrd_pipeline.Farm.attach online log;
  let cfg = { Harness.default with threads = 4; ops_per_thread = 25; seed = 3 } in
  (* Harness.run builds its own log, so drive the engine directly *)
  ignore cfg;
  Vyrd_sched.Native.run (fun sched ->
      let ctx = Instrument.make sched log in
      let b = s.build ~bug:false ctx in
      let stop = ref false in
      (match b.Harness.daemon with
      | Some step ->
        sched.Vyrd_sched.Sched.spawn (fun () ->
            while not !stop do
              step ();
              sched.Vyrd_sched.Sched.yield ()
            done)
      | None -> ());
      let remaining = Atomic.make 4 in
      for t = 1 to 4 do
        sched.Vyrd_sched.Sched.spawn (fun () ->
            let rng = Vyrd_sched.Prng.create (100 + t) in
            for _ = 1 to 25 do
              b.Harness.random_op rng (Vyrd_sched.Prng.int rng 16)
            done;
            if Atomic.fetch_and_add remaining (-1) = 1 then stop := true)
      done);
  assert_pass "native online" (Vyrd_pipeline.Farm.finish online).merged

let suite =
  [
    ("all subjects under native threads", `Slow, test_all_subjects_native);
    ("online checking under native threads", `Slow, test_online_native);
  ]
