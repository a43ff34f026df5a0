(* Tests for the Scan file-system model (paper §7.3). *)

open Vyrd
open Vyrd_sched
open Vyrd_scanfs

let assert_pass what report =
  if not (Report.is_pass report) then
    Alcotest.failf "%s: expected pass, got %a" what Report.pp report

let check_io log = Checker.check ~mode:`Io log Scanfs.spec
let check_view log = Checker.check ~mode:`View ~view:(Scanfs.viewdef ~disk_blocks:16) log Scanfs.spec

let names = [| "alpha"; "beta"; "gamma"; "delta" |]

let payload rng =
  String.init (1 + Prng.int rng Scanfs.file_size) (fun _ ->
      Char.chr (97 + Prng.int rng 26))

let run_fs ?(bugs = []) ~seed ~threads ~ops () =
  let disk_blocks = 16 in
  let log = Log.create ~level:`View () in
  Coop.run ~seed (fun s ->
      let ctx = Instrument.make s log in
      let fs = Scanfs.create_fs ~bugs ~disk_blocks ctx in
      let stop = ref false in
      s.spawn (fun () ->
          while not !stop do
            Scanfs.sync fs;
            s.yield ()
          done);
      let remaining = ref threads in
      for t = 1 to threads do
        s.spawn (fun () ->
            let rng = Prng.create ((seed * 271) + t) in
            for _ = 1 to ops do
              let name = names.(Prng.int rng (Array.length names)) in
              match Prng.int rng 13 with
              | 0 | 1 -> ignore (Scanfs.create fs name)
              | 2 | 3 | 4 -> ignore (Scanfs.write fs name (payload rng))
              | 5 | 6 -> ignore (Scanfs.read fs name)
              | 7 -> ignore (Scanfs.delete fs name)
              | 8 -> ignore (Scanfs.exists fs name)
              | 9 -> ignore (Scanfs.append fs name (String.make (1 + Prng.int rng 3) 'x'))
              | 10 ->
                ignore
                  (Scanfs.rename fs
                     ~src:names.(Prng.int rng (Array.length names))
                     ~dst:names.(Prng.int rng (Array.length names)))
              | _ -> Scanfs.evict fs (Prng.int rng disk_blocks)
            done;
            decr remaining;
            if !remaining = 0 then stop := true)
      done);
  log

let test_sequential_semantics () =
  let log = Log.create ~level:`View () in
  Coop.run (fun s ->
      let ctx = Instrument.make s log in
      let fs = Scanfs.create_fs ~disk_blocks:8 ctx in
      Alcotest.(check bool) "create" true (Scanfs.create fs "a");
      Alcotest.(check bool) "create duplicate" false (Scanfs.create fs "a");
      Alcotest.(check (option string)) "empty file" (Some "") (Scanfs.read fs "a");
      Alcotest.(check bool) "write" true (Scanfs.write fs "a" "hello world!");
      (let expected = "hello world!" ^ String.make (Scanfs.file_size - 12) '\000' in
       Alcotest.(check (option string)) "read back" (Some expected) (Scanfs.read fs "a"));
      Alcotest.(check bool) "write missing" false (Scanfs.write fs "b" "x");
      Alcotest.(check (option string)) "read missing" None (Scanfs.read fs "b");
      Alcotest.(check bool) "exists" true (Scanfs.exists fs "a");
      Scanfs.sync fs;
      Scanfs.evict fs 0;
      Scanfs.evict fs 1;
      (let expected = "hello world!" ^ String.make (Scanfs.file_size - 12) '\000' in
       Alcotest.(check (option string)) "read after evict" (Some expected)
         (Scanfs.read fs "a"));
      Alcotest.(check bool) "delete" true (Scanfs.delete fs "a");
      Alcotest.(check bool) "delete again" false (Scanfs.delete fs "a");
      Alcotest.(check bool) "gone" false (Scanfs.exists fs "a");
      (* freed blocks can be reused *)
      Alcotest.(check bool) "recreate" true (Scanfs.create fs "c");
      Alcotest.(check (option string)) "recreated empty" (Some "") (Scanfs.read fs "c");
      (* append and rename *)
      Alcotest.(check bool) "append" true (Scanfs.append fs "c" "12345");
      Alcotest.(check (option string)) "appended" (Some "12345") (Scanfs.read fs "c");
      Alcotest.(check bool) "append more" true (Scanfs.append fs "c" "678");
      Alcotest.(check (option string)) "appended more" (Some "12345678")
        (Scanfs.read fs "c");
      Alcotest.(check bool) "append overflow" false
        (Scanfs.append fs "c" (String.make Scanfs.file_size 'x'));
      Alcotest.(check bool) "rename" true (Scanfs.rename fs ~src:"c" ~dst:"d");
      Alcotest.(check bool) "source gone" false (Scanfs.exists fs "c");
      Alcotest.(check (option string)) "destination has contents" (Some "12345678")
        (Scanfs.read fs "d");
      Alcotest.(check bool) "rename missing" false (Scanfs.rename fs ~src:"c" ~dst:"e");
      Alcotest.(check bool) "rename onto existing" false
        (Scanfs.rename fs ~src:"d" ~dst:"d"));
  assert_pass "sequential io" (check_io log);
  assert_pass "sequential view" (check_view log)

let test_disk_full () =
  let log = Log.create ~level:`View () in
  Coop.run (fun s ->
      let ctx = Instrument.make s log in
      let fs = Scanfs.create_fs ~disk_blocks:Scanfs.blocks_per_file ctx in
      Alcotest.(check bool) "create a" true (Scanfs.create fs "a");
      Alcotest.(check bool) "create b" true (Scanfs.create fs "b");
      Alcotest.(check bool) "write a" true (Scanfs.write fs "a" "xxx");
      Alcotest.(check bool) "disk full" false (Scanfs.write fs "b" "yyy");
      Alcotest.(check bool) "free blocks" true (Scanfs.delete fs "a");
      Alcotest.(check bool) "room again" true (Scanfs.write fs "b" "yyy"));
  assert_pass "disk full io" (check_io log)

let test_concurrent_correct () =
  for seed = 0 to 14 do
    let log = run_fs ~seed ~threads:4 ~ops:20 () in
    assert_pass (Printf.sprintf "fs io seed %d" seed) (check_io log);
    assert_pass (Printf.sprintf "fs view seed %d" seed) (check_view log)
  done

let test_cache_bug_detected () =
  let rec go seed =
    if seed > 400 then Alcotest.fail "scanfs cache bug never detected"
    else
      let log =
        run_fs ~bugs:[ Scanfs.Unprotected_dirty_copy ] ~seed ~threads:4 ~ops:20 ()
      in
      let report = check_view log in
      if Report.is_pass report then go (seed + 1)
      else
        match report.Report.outcome with
        | Report.Fail (Report.View_violation _) -> ()
        | _ -> Alcotest.failf "unexpected %a" Report.pp report
  in
  go 0

let test_invariant_detects_bug_early () =
  (* with the Scan prototype's cache invariant, the torn flush is caught at
     the flush commit itself, not only after an evict *)
  let invariant = Scanfs.invariant_clean_matches_disk ~disk_blocks:16 in
  let rec go seed hits =
    if seed > 150 then hits
    else
      let log =
        run_fs ~bugs:[ Scanfs.Unprotected_dirty_copy ] ~seed ~threads:4 ~ops:20 ()
      in
      let r =
        Checker.check ~mode:`View ~view:(Scanfs.viewdef ~disk_blocks:16) ~invariants:[ invariant ] log
          Scanfs.spec
      in
      go (seed + 1) (if Report.is_pass r then hits else hits + 1)
  in
  let with_invariant = go 0 0 in
  Alcotest.(check bool)
    (Printf.sprintf "invariant detects on several seeds (%d)" with_invariant)
    true (with_invariant > 0);
  (* and it never fires on the correct implementation *)
  for seed = 0 to 9 do
    let log = run_fs ~seed ~threads:4 ~ops:20 () in
    assert_pass
      (Printf.sprintf "correct with invariant seed %d" seed)
      (Checker.check ~mode:`View ~view:(Scanfs.viewdef ~disk_blocks:16) ~invariants:[ invariant ] log
         Scanfs.spec)
  done

let test_bug_needs_flush_interleaving () =
  (* without the flush daemon the unprotected copy has nothing to race
     against: all runs must pass *)
  for seed = 0 to 9 do
    let disk_blocks = 8 in
    let log = Log.create ~level:`View () in
    Coop.run ~seed (fun s ->
        let ctx = Instrument.make s log in
        let fs =
          Scanfs.create_fs ~bugs:[ Scanfs.Unprotected_dirty_copy ] ~disk_blocks ctx
        in
        for t = 1 to 3 do
          s.spawn (fun () ->
              let rng = Prng.create (seed + (17 * t)) in
              ignore (Scanfs.create fs "f");
              for _ = 1 to 15 do
                ignore (Scanfs.write fs "f" (payload rng));
                ignore (Scanfs.read fs "f")
              done)
        done);
    assert_pass (Printf.sprintf "no-flush seed %d" seed) (check_view log)
  done

(* The view and the invariant, on precomputed names, equal their former
   definitions ([View_oracles]) at every commit of seeded runs with and
   without the bug. *)
let test_view_equals_oracle () =
  let invariants =
    [ (Scanfs.invariant_clean_matches_disk ~disk_blocks:16, View_oracles.scanfs_invariant) ]
  in
  List.iter
    (fun (bugs, seed) ->
      let events = Log.snapshot (run_fs ~bugs ~seed ~threads:4 ~ops:30 ()) in
      match
        View_oracles.agree_at_every_commit events ~view:(Scanfs.viewdef ~disk_blocks:16)
          ~oracle:View_oracles.scanfs_viewdef ~invariants
      with
      | Ok commits ->
        Alcotest.(check bool) (Printf.sprintf "seed %d: commits" seed) true (commits > 0)
      | Error m -> Alcotest.failf "seed %d: %s" seed m)
    (List.concat_map
       (fun seed -> [ ([], seed); ([ Scanfs.Unprotected_dirty_copy ], seed) ])
       (List.init 8 Fun.id))

let suite =
  [
    ("sequential semantics", `Quick, test_sequential_semantics);
    ("disk full", `Quick, test_disk_full);
    ("concurrent correct", `Quick, test_concurrent_correct);
    ("cache bug detected by view", `Quick, test_cache_bug_detected);
    ("invariant detects bug at flush", `Quick, test_invariant_detects_bug_early);
    ("bug needs flush interleaving", `Quick, test_bug_needs_flush_interleaving);
    ("view equals its former definition", `Quick, test_view_equals_oracle);
  ]
