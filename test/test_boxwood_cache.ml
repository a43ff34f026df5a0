(* Tests for the Boxwood Cache + Chunk Manager (paper §7.2.1–7.2.2). *)

open Vyrd
open Vyrd_sched
open Vyrd_boxwood

let chunks = 6
let buf_size = 8
let spec = Cache.spec ~chunks
let full_view = Cache.viewdef ~chunks ~buf_size
let keyed_view = Cache.viewdef_keyed ~chunks ~buf_size
let invariant = Cache.invariant_clean_matches_chunk ~chunks ~buf_size

(* Random payload of exactly [buf_size] printable bytes. *)
let payload rng = String.init buf_size (fun _ -> Char.chr (97 + Prng.int rng 26))

let run_cache ?(bugs = []) ?(chunks = chunks) ~seed ~threads ~ops () =
  let log = Log.create ~level:`View () in
  Coop.run ~seed (fun s ->
      let ctx = Instrument.make s log in
      let cm = Chunk_manager.create ~chunks ctx in
      let cache = Cache.create ~bugs ~buf_size ctx cm in
      let stop = ref false in
      (* the flush daemon, as in Boxwood *)
      s.spawn (fun () ->
          while not !stop do
            Cache.flush cache;
            s.yield ()
          done);
      let remaining = ref threads in
      for t = 1 to threads do
        s.spawn (fun () ->
            let rng = Prng.create ((seed * 523) + t) in
            for _ = 1 to ops do
              let h = Prng.int rng chunks in
              match Prng.int rng 10 with
              | 0 | 1 | 2 | 3 -> Cache.write cache h (payload rng)
              | 4 | 5 | 6 -> ignore (Cache.read cache h)
              | _ -> Cache.evict cache h
            done;
            decr remaining;
            if !remaining = 0 then stop := true)
      done);
  log

let assert_pass what report =
  if not (Report.is_pass report) then
    Alcotest.failf "%s: expected pass, got %a" what Report.pp report

let test_cache_correct () =
  for seed = 0 to 14 do
    let log = run_cache ~seed ~threads:4 ~ops:20 () in
    assert_pass
      (Printf.sprintf "cache io seed %d" seed)
      (Checker.check ~mode:`Io log spec);
    assert_pass
      (Printf.sprintf "cache view seed %d" seed)
      (Checker.check ~mode:`View ~view:full_view log spec);
    assert_pass
      (Printf.sprintf "cache invariant seed %d" seed)
      (Checker.check ~mode:`View ~view:full_view ~invariants:[ invariant ] log spec)
  done

let test_cache_keyed_view_agrees () =
  for seed = 0 to 9 do
    let log = run_cache ~seed ~threads:4 ~ops:20 () in
    let full = Checker.check ~mode:`View ~view:full_view log spec in
    let keyed = Checker.check ~mode:`View ~view:keyed_view log spec in
    Alcotest.(check string)
      (Printf.sprintf "same verdict seed %d" seed)
      (Report.tag full) (Report.tag keyed)
  done

let find_failing ~check ~max_seed ~run =
  let rec go seed =
    if seed > max_seed then None
    else
      let report = check (run ~seed) in
      if Report.is_pass report then go (seed + 1) else Some (seed, report)
  in
  go 0

let buggy_run ~seed =
  run_cache ~bugs:[ Cache.Unprotected_dirty_copy ] ~seed ~threads:4 ~ops:20 ()

let test_cache_bug_view_detected () =
  match
    find_failing ~max_seed:400
      ~check:(fun log -> Checker.check ~mode:`View ~view:full_view log spec)
      ~run:buggy_run
  with
  | None -> Alcotest.fail "unprotected dirty copy never detected by view refinement"
  | Some (_, report) -> (
    match report.Report.outcome with
    | Report.Fail (Report.View_violation _) -> ()
    | _ -> Alcotest.failf "unexpected %a" Report.pp report)

let test_cache_bug_invariant_detected () =
  match
    find_failing ~max_seed:400
      ~check:(fun log ->
        Checker.check ~mode:`View ~view:full_view ~invariants:[ invariant ] log spec)
      ~run:buggy_run
  with
  | None -> Alcotest.fail "unprotected dirty copy never detected by invariant (i)"
  | Some (_, report) ->
    Alcotest.(check bool)
      "invariant or view violation" true
      (List.mem (Report.tag report) [ "invariant"; "view" ])

let test_cache_bug_io_detected () =
  match
    find_failing ~max_seed:1500
      ~check:(fun log -> Checker.check ~mode:`Io log spec)
      ~run:buggy_run
  with
  | None ->
    (* The paper reports the same asymmetry: I/O refinement "required a much
       longer test run" (§7.2.2) — with modest runs it may need very many
       seeds; not finding one within the budget is acceptable, but views
       must win where both detect (covered below). *)
    ()
  | Some (_, report) -> (
    match report.Report.outcome with
    | Report.Fail (Report.Observer_violation _ | Report.Io_violation _) -> ()
    | _ -> Alcotest.failf "unexpected %a" Report.pp report)

let test_cache_view_detects_much_earlier () =
  (* The paper's Cache row of Table 1 has the most dramatic view-vs-I/O
     gap (hundreds of methods vs ~tens).  Where both modes detect the bug,
     view refinement must be no later; across runs it should be strictly
     earlier somewhere. *)
  let io_total = ref 0 and view_total = ref 0 and both = ref 0 and strictly = ref 0 in
  for seed = 0 to 200 do
    let log = buggy_run ~seed in
    let io = Checker.check ~mode:`Io log spec in
    let view = Checker.check ~mode:`View ~view:full_view log spec in
    if not (Report.is_pass view) then begin
      if not (Report.is_pass io) then begin
        incr both;
        io_total := !io_total + io.Report.stats.methods_checked;
        view_total := !view_total + view.Report.stats.methods_checked;
        if view.Report.stats.methods_checked < io.Report.stats.methods_checked then
          incr strictly
      end
      else incr strictly
      (* view detected, io missed entirely: the strongest form of winning *)
    end
  done;
  Alcotest.(check bool) "view strictly earlier somewhere" true (!strictly > 0);
  if !both > 0 then
    Alcotest.(check bool)
      (Printf.sprintf "view (%d) <= io (%d)" !view_total !io_total)
      true
      (!view_total <= !io_total)

let test_read_fill_is_view_neutral () =
  (* read_fill installs clean entries; the abstract store must be unchanged,
     invariant (i) must keep holding, and subsequent reads must hit. *)
  for seed = 0 to 9 do
    let log = Log.create ~level:`View () in
    Coop.run ~seed (fun s ->
        let ctx = Instrument.make s log in
        let cm = Chunk_manager.create ~chunks ctx in
        let cache = Cache.create ~buf_size ctx cm in
        let stop = ref false in
        s.spawn (fun () ->
            while not !stop do
              Cache.flush cache;
              s.yield ()
            done);
        let remaining = ref 4 in
        for t = 1 to 4 do
          s.spawn (fun () ->
              let rng = Prng.create ((seed * 67) + t) in
              for _ = 1 to 20 do
                let h = Prng.int rng chunks in
                match Prng.int rng 10 with
                | 0 | 1 | 2 -> Cache.write cache h (payload rng)
                | 3 | 4 | 5 | 6 -> ignore (Cache.read_fill cache h)
                | _ -> Cache.evict cache h
              done;
              decr remaining;
              if !remaining = 0 then stop := true)
        done);
    assert_pass
      (Printf.sprintf "read_fill view seed %d" seed)
      (Checker.check ~mode:`View ~view:full_view ~invariants:[ invariant ] log spec)
  done

let test_cache_sequential_semantics () =
  let log = Log.create ~level:`View () in
  Coop.run (fun s ->
      let ctx = Instrument.make s log in
      let cm = Chunk_manager.create ~chunks ctx in
      let cache = Cache.create ~buf_size ctx cm in
      Alcotest.(check string) "read of never-written" "" (Cache.read cache 0);
      Cache.write cache 0 "hello";
      let padded = "hello" ^ String.make 3 '\000' in
      Alcotest.(check string) "read back" padded (Cache.read cache 0);
      Alcotest.(check string) "chunk not yet written" "" (Chunk_manager.read cm 0);
      Cache.flush cache;
      Alcotest.(check string) "chunk after flush" padded (Chunk_manager.read cm 0);
      Alcotest.(check int) "version bumped" 1 (Chunk_manager.version cm 0);
      Cache.evict cache 0;
      Alcotest.(check string) "read after evict" padded (Cache.read cache 0);
      Cache.write cache 1 "dirty";
      Cache.evict cache 1;
      Alcotest.(check string) "dirty evict wrote back"
        ("dirty" ^ String.make 3 '\000')
        (Chunk_manager.read cm 1));
  assert_pass "sequential cache"
    (Checker.check ~mode:`View ~view:full_view ~invariants:[ invariant ] log spec)

(* The keyed view re-projects a handle only when a variable it read
   changed, yet must convict exactly where the full re-traversal does. *)
let test_keyed_agrees_on_buggy_runs () =
  let convicted = ref 0 in
  for seed = 0 to 39 do
    let log = buggy_run ~seed in
    let full, full_at = Checker.check_indexed ~mode:`View ~view:full_view log spec in
    let keyed, keyed_at = Checker.check_indexed ~mode:`View ~view:keyed_view log spec in
    let what = Printf.sprintf "seed %d" seed in
    Alcotest.(check string) (what ^ " verdict") (Report.tag full) (Report.tag keyed);
    Alcotest.(check (option int)) (what ^ " fail index") full_at keyed_at;
    Alcotest.(check bool) (what ^ " stats") true (full.Report.stats = keyed.Report.stats);
    if not (Report.is_pass full) then incr convicted
  done;
  Alcotest.(check bool) "some seed convicts" true (!convicted > 0)

(* The §6.4 ablation as a count, not a timing: on a 64-handle store the
   keyed view projects every key once and then only the keys a commit
   changed, where a full re-traversal projects all 64 at every commit. *)
let test_keyed_projection_bound () =
  let chunks = 64 in
  let spec = Cache.spec ~chunks in
  let log = run_cache ~chunks ~seed:3 ~threads:6 ~ops:60 () in
  let keyed = Checker.create ~mode:`View ~view:(Cache.viewdef_keyed ~chunks ~buf_size) spec in
  Log.iter (fun ev -> ignore (Checker.feed keyed ev)) log;
  let report = Checker.report keyed in
  assert_pass "keyed view" report;
  let commits = report.Report.stats.commits_resolved in
  let projections = Checker.view_projections keyed in
  Alcotest.(check bool)
    (Printf.sprintf "%d projections <= %d commits + %d keys" projections commits chunks)
    true
    (projections <= commits + chunks);
  Alcotest.(check bool)
    (Printf.sprintf "full mode would project %d" (chunks * commits))
    true
    (commits > 1 && commits + chunks < chunks * commits)

(* The full and keyed views and the invariant, on precomputed names, equal
   their former definitions ([View_oracles]) at every commit of seeded runs
   with and without the bug. *)
let test_views_equal_oracles () =
  let oracle = View_oracles.cache_viewdef ~chunks ~buf_size in
  let invariants = [ (invariant, View_oracles.cache_invariant ~chunks ~buf_size) ] in
  List.iter
    (fun (bugs, seed) ->
      let events = Log.snapshot (run_cache ~bugs ~seed ~threads:4 ~ops:30 ()) in
      List.iter
        (fun (what, view) ->
          match View_oracles.agree_at_every_commit events ~view ~oracle ~invariants with
          | Ok commits ->
            Alcotest.(check bool) (Printf.sprintf "seed %d: commits" seed) true (commits > 0)
          | Error m -> Alcotest.failf "seed %d, %s view: %s" seed what m)
        [ ("full", full_view); ("keyed", keyed_view) ])
    (List.concat_map
       (fun seed -> [ ([], seed); ([ Cache.Unprotected_dirty_copy ], seed) ])
       (List.init 8 Fun.id))

let suite =
  [
    ("cache correct", `Quick, test_cache_correct);
    ("cache keyed view agrees with full", `Quick, test_cache_keyed_view_agrees);
    ("cache bug: view detects", `Quick, test_cache_bug_view_detected);
    ("cache bug: invariant detects", `Quick, test_cache_bug_invariant_detected);
    ("cache bug: io eventually detects", `Slow, test_cache_bug_io_detected);
    ("cache bug: view much earlier than io", `Slow, test_cache_view_detects_much_earlier);
    ("read_fill is view neutral", `Quick, test_read_fill_is_view_neutral);
    ("cache sequential semantics", `Quick, test_cache_sequential_semantics);
    ("cache keyed view agrees with full on buggy runs", `Quick, test_keyed_agrees_on_buggy_runs);
    ("cache keyed view projection bound", `Quick, test_keyed_projection_bound);
    ("cache views equal their former definitions", `Quick, test_views_equal_oracles);
  ]
