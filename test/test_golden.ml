(* Golden schedules: the cooperative engine's decisions are part of the
   repository's contract.  Table 1 counts, the mutant matrix and every
   recorded example depend on a seed reproducing the same interleaving, so
   any change to [Coop] or [Prng] must leave these digests unmoved.  Each
   digest is the MD5 of a [`Full] log's [Event.to_line] text (or of a
   generator's outputs).  A change that moves a schedule on purpose must
   update the table and say why; every other change must leave it
   alone. *)

open Vyrd
open Vyrd_sched
module Harness = Vyrd_harness.Harness
module Subjects = Vyrd_harness.Subjects
module Mutants = Vyrd_harness.Mutants
module Workload = Vyrd_harness.Workload

let digest_lines add =
  let buf = Buffer.create 4096 in
  add (fun line ->
      Buffer.add_string buf line;
      Buffer.add_char buf '\n');
  Digest.to_hex (Digest.string (Buffer.contents buf))

let log_digest log = digest_lines (fun emit -> Log.iter (fun ev -> emit (Event.to_line ev)) log)

let config seed =
  { Harness.threads = 4; ops_per_thread = 40; key_pool = 8; key_range = 16; seed;
    log_level = `Full }

let composite = Workload.composite
let full_log subjects ~bug seed = Workload.log (Workload.v ~config:(config seed) ~bug subjects)
let run_subjects subjects ~bug seed = log_digest (full_log subjects ~bug seed)

let seeds = List.init 8 (fun i -> i + 1)

let log_cases =
  List.concat_map
    (fun (name, subjects) ->
      List.concat_map
        (fun bug ->
          List.map
            (fun seed ->
              ( Printf.sprintf "%s bug=%b seed=%d" name bug seed,
                fun () -> run_subjects subjects ~bug seed ))
            seeds)
        [ false; true ])
    [
      ("composite", composite);
      ("Multiset-BinaryTree", [ Subjects.multiset_btree ]);
      ("BLinkTree", [ Subjects.blink_tree ]);
      ("Cache", [ Subjects.cache ]);
    ]

(* Scripted decisions see the same candidate order and the same [running]
   thread as before: explore a small composite with a preemption bound and
   digest every schedule's log. *)
let explore_case () =
  let logs = ref [] in
  let make_main () =
    let log = Log.create ~level:`Full () in
    logs := log :: !logs;
    fun (s : Sched.t) ->
      let ctx = Instrument.make s log in
      let b = Subjects.multiset_vector.build ~bug:false ctx in
      for t = 1 to 2 do
        s.spawn (fun () ->
            let rng = Prng.create t in
            for _ = 1 to 2 do
              b.random_op rng (Prng.int rng 4)
            done)
      done
  in
  let r = Explore.explore ~max_schedules:40 ~preemption_bound:1 make_main in
  digest_lines (fun emit ->
      emit (Printf.sprintf "schedules=%d exhausted=%b" r.schedules r.exhausted);
      List.iter (fun log -> emit (log_digest log)) (List.rev !logs))

let prng_case seed () =
  digest_lines (fun emit ->
      let draw name t =
        for _ = 1 to 64 do
          emit (Printf.sprintf "%s int %d" name (Prng.int t 1_000_003))
        done;
        for _ = 1 to 64 do
          emit (Printf.sprintf "%s bits64 %Ld" name (Prng.bits64 t))
        done;
        emit (Printf.sprintf "%s bool %b" name (Prng.bool t))
      in
      let t = Prng.create seed in
      draw "root" t;
      let child = Prng.split t in
      let twin = Prng.copy t in
      draw "child" child;
      draw "parent" t;
      draw "copy" twin)

let cases =
  log_cases
  @ [ ("explore composite pb=1", explore_case) ]
  @ List.map (fun seed -> (Printf.sprintf "prng seed=%d" seed, prng_case seed)) [ 0; 1; 42; -7 ]

let expected =
  [
    ("composite bug=false seed=1", "62e927181dc79bfe4e8079fe14cdb5af");
    ("composite bug=false seed=2", "227a56e167b71ceccf2508b5bac31f1a");
    ("composite bug=false seed=3", "473817304f91de21cb3584f61cf0d575");
    ("composite bug=false seed=4", "c14b41d98eda08969b3a810673bb1e7a");
    ("composite bug=false seed=5", "31bdc2da7004f05e4d003ccc804bedf9");
    ("composite bug=false seed=6", "68ede29b622b66f925b9ca7c013832fa");
    ("composite bug=false seed=7", "07802bc1e206f4f4f3fef063af86bc62");
    ("composite bug=false seed=8", "af2e5d6e68f82e4b00cc4d849f92e036");
    ("composite bug=true seed=1", "fbcd82fa6fc291833d77d38e77846c6a");
    ("composite bug=true seed=2", "5d9c409ebd174e850e83b1e2f58f800d");
    ("composite bug=true seed=3", "83b89a3b3a2207c2a23189eb6c4ea760");
    ("composite bug=true seed=4", "6d105b22586ca6728d5fda62f5c2a1e8");
    ("composite bug=true seed=5", "731a1848a295305b4b566239ff1c3452");
    ("composite bug=true seed=6", "e066327cdc44aad1316cf46eab6eb939");
    ("composite bug=true seed=7", "3f6237ac5eaae7df31bb4031f8db8325");
    ("composite bug=true seed=8", "1a50bf01b9511c1261b108d2e4df67e9");
    ("Multiset-BinaryTree bug=false seed=1", "82977432224abf57ce421e4eb0faeab0");
    ("Multiset-BinaryTree bug=false seed=2", "b56dbb0c42c9a8c8387c2696ec662843");
    ("Multiset-BinaryTree bug=false seed=3", "62afcd60535f6cdfce8a0cfea5a88a92");
    ("Multiset-BinaryTree bug=false seed=4", "a89cce68fc76503756c5a635df0f4ae8");
    ("Multiset-BinaryTree bug=false seed=5", "497531b4647c91af188e66e07646f7a2");
    ("Multiset-BinaryTree bug=false seed=6", "f41ba7062db3411285334619685777af");
    ("Multiset-BinaryTree bug=false seed=7", "2f9f5b496d8c937df6590fcfb0f2e5f7");
    ("Multiset-BinaryTree bug=false seed=8", "fd4d5faf830ba1fd5ddc725b0fcca8e8");
    ("Multiset-BinaryTree bug=true seed=1", "5e2baf096f50fc64247a867c7412d49e");
    ("Multiset-BinaryTree bug=true seed=2", "f7271258d773ef7442004fa8f26113c1");
    ("Multiset-BinaryTree bug=true seed=3", "46d071f684a345603ed233e1372dee68");
    ("Multiset-BinaryTree bug=true seed=4", "178a7ae9360854bb77ef048362d423c0");
    ("Multiset-BinaryTree bug=true seed=5", "4d9b708cfac75564504163b4c17809e6");
    ("Multiset-BinaryTree bug=true seed=6", "7c0ae167e98dbfb11e1ed3a183635997");
    ("Multiset-BinaryTree bug=true seed=7", "58daaaae68f7706c1339538a4be0ae42");
    ("Multiset-BinaryTree bug=true seed=8", "0576ef9d5d34e0d768010270ab27f2ae");
    ("BLinkTree bug=false seed=1", "db07c83d0d8afacf6d864610f71e365d");
    ("BLinkTree bug=false seed=2", "907444243a98507f7ff4ab0537e647c8");
    ("BLinkTree bug=false seed=3", "37d405efe7e7a205f7361a72913ce68d");
    ("BLinkTree bug=false seed=4", "88039e66e440f17f0f274f6516de190e");
    ("BLinkTree bug=false seed=5", "0f8ab031f46543f3e1a4d9f534076f85");
    ("BLinkTree bug=false seed=6", "cbf41f24227fadf3f21a36187b5a4354");
    ("BLinkTree bug=false seed=7", "8224b8e68e788327011f1f5f600df831");
    ("BLinkTree bug=false seed=8", "ed7173ea83a7c66c6f9029661acbf928");
    ("BLinkTree bug=true seed=1", "15bc9f0b52b655076d9f054ce3cd1612");
    ("BLinkTree bug=true seed=2", "e7a1e855597b0ecfd394eb053a7743e6");
    ("BLinkTree bug=true seed=3", "81356968772968dca5e8b2f274c3b0c4");
    ("BLinkTree bug=true seed=4", "eb744ce10a13d54ded2432e187fde586");
    ("BLinkTree bug=true seed=5", "56ec6802cc55fbce78e36f2445898d71");
    ("BLinkTree bug=true seed=6", "3ff57832b9b521dc7135000453d4bb5f");
    ("BLinkTree bug=true seed=7", "4e78a6dd474438e6a6ae3dc206dd5b20");
    ("BLinkTree bug=true seed=8", "f4145d60f376d3e82700fbc847b5d5b4");
    ("Cache bug=false seed=1", "9e93c4770c2b9d047fe1ee4770b70d85");
    ("Cache bug=false seed=2", "e42d0df76c64ff7d27bdc9b37a339676");
    ("Cache bug=false seed=3", "178025f529ca8e1df2e9ba00bfd476c0");
    ("Cache bug=false seed=4", "3f15beef7d9d1954af196f61e9704ac5");
    ("Cache bug=false seed=5", "ac579ba037fe4b87d886cc47cfffce2f");
    ("Cache bug=false seed=6", "fa6be6cc000b76e453225fa96e6f208e");
    ("Cache bug=false seed=7", "3752437d8342e7d0c8939b2879abceeb");
    ("Cache bug=false seed=8", "d7b3b8e3cfd26576074572d53198caa5");
    ("Cache bug=true seed=1", "a650ab36e2a9c04029fc2f9bca303f69");
    ("Cache bug=true seed=2", "951bef84e4b369bef61bf5a4fa46e5dc");
    ("Cache bug=true seed=3", "1eac8d35290d78dfb5ec0a637a1a4bde");
    ("Cache bug=true seed=4", "2a763be2991df24e804ebec0267d270e");
    ("Cache bug=true seed=5", "b02ae0bf0f625e8da06729f3a9b32644");
    ("Cache bug=true seed=6", "8f36d0591f44064f3156559081174c9f");
    ("Cache bug=true seed=7", "efef2469ec1e5cddd14e0d6b0590e71c");
    ("Cache bug=true seed=8", "b381f6c02fca013b7ad1f4047117effc");
    ("explore composite pb=1", "28907dd22a58c3d884f4f5095e12692e");
    ("prng seed=0", "71e7c457b71642e007c17f24e8489777");
    ("prng seed=1", "6a2d81b32e657728b29dd3fe2fdf3571");
    ("prng seed=42", "4b3fc3c62146a1f075e6f4fd6719b9ad");
    ("prng seed=-7", "23a090484d73bd660a9586f0c695e331");
  ]

let test_golden () =
  List.iter
    (fun (name, run) ->
      match List.assoc_opt name expected with
      | None -> Alcotest.failf "no golden digest for %s" name
      | Some want -> Alcotest.(check string) name want (run ()))
    cases

(* --- the Coop re-pick fast path against the general path ----------------- *)

(* A [?decide] that draws from its own [Prng.create seed] sends every step
   through the trampoline, the path the seeded default skips when its draw
   re-picks the yielder, so it must reproduce the default exactly. *)
let oracle seed =
  let rng = Prng.create seed in
  fun (c : Coop.choice) -> Prng.int rng (Array.length c.candidates)

(* The harness's shape: daemons loop until the workers are done, and four
   workers run random ops over every subject. *)
let workload subjects seed log (s : Sched.t) =
  let ctx = Instrument.make s log in
  let bs = Array.of_list (List.map (fun (sub : Subjects.t) -> sub.build ~bug:false ctx) subjects) in
  let stop = ref false and remaining = ref 4 in
  Array.iter
    (fun (b : Harness.built) ->
      Option.iter
        (fun step ->
          s.spawn (fun () ->
              while not !stop do
                step ();
                s.yield ()
              done))
        b.daemon)
    bs;
  for t = 1 to 4 do
    s.spawn (fun () ->
        let rng = Prng.create ((seed * 7919) + t) in
        for _ = 1 to 30 do
          let b = bs.(Prng.int rng (Array.length bs)) in
          b.random_op rng (Prng.int rng 16)
        done;
        decr remaining;
        if !remaining = 0 then stop := true)
  done

(* The run's [`Full] log text, and its step count or the [Livelock] count. *)
let coop_run ?max_steps ?decide subjects seed =
  let log = Log.create ~level:`Full () in
  let steps =
    match Coop.run_with_stats ~seed ?max_steps ?decide (workload subjects seed log) with
    | st -> Ok st.steps
    | exception Coop.Livelock n -> Error n
  in
  let buf = Buffer.create 4096 in
  Log.iter
    (fun ev ->
      Buffer.add_string buf (Event.to_line ev);
      Buffer.add_char buf '\n')
    log;
  (Buffer.contents buf, steps)

let steps_t = Alcotest.(result int int)

let test_fast_path_matches_oracle () =
  List.iter
    (fun (name, subjects) ->
      for seed = 1 to 50 do
        let what = Printf.sprintf "%s seed=%d" name seed in
        let log, steps = coop_run subjects seed in
        let log', steps' = coop_run ~decide:(oracle seed) subjects seed in
        Alcotest.(check bool) (what ^ ": identical `Full log") true (String.equal log log');
        Alcotest.check steps_t (what ^ ": stats.steps") steps' steps;
        (* cut the run short: both raise Livelock at the same count, having
           logged the same prefix *)
        let max_steps = Result.get_ok steps / 2 in
        let log, steps = coop_run ~max_steps subjects seed in
        let log', steps' = coop_run ~max_steps ~decide:(oracle seed) subjects seed in
        Alcotest.(check bool) (what ^ ": identical prefix at the cut") true (String.equal log log');
        Alcotest.check steps_t (what ^ ": Livelock count") (Error (max_steps + 1)) steps';
        Alcotest.check steps_t (what ^ ": Livelock count") steps' steps
      done)
    [ ("composite", composite); ("Multiset-BinaryTree", [ Subjects.multiset_btree ]) ]

(* --- the quick mutant matrix ---------------------------------------------- *)

(* Every coop and explore cell of [Mutants.run_all Mutants.quick]: seeded
   sweeps and bounded exploration, so a change to the engine that moves a
   schedule moves a cell.  Native cells are real-thread nondeterminism and
   stay unpinned. *)
let pinned_matrix =
  [
    "blink_tree.torn_split coop/io detected=false runs=80 methods=- violation=-";
    "blink_tree.torn_split coop/view detected=true runs=1 methods=23 violation=view";
    "blink_tree.torn_split coop/race detected=true runs=2 methods=- violation=node[4]";
    "blink_tree.torn_split coop/lin detected=false runs=40 methods=- violation=-";
    "blink_tree.torn_split explore/view detected=true runs=1 methods=80 violation=view";
    "cache.gated_lock_inversion coop/deadlock detected=false runs=12 methods=- violation=-";
    "cache.gated_lock_inversion coop/view detected=false runs=10 methods=- violation=-";
    "cache.gated_lock_inversion coop/lin detected=false runs=10 methods=- violation=-";
    "cache.gated_lock_inversion coop/monitor detected=false runs=12 methods=- violation=-";
    "cache.lock_order_inversion coop/deadlock detected=true runs=80 methods=- violation=seed=0";
    "cache.lock_order_inversion explore/deadlock detected=true runs=6000 methods=- violation=hangs=454";
    "cache.lock_order_inversion coop/monitor detected=true runs=3 methods=- violation=lock-reversal@1061";
    "cache.stale_writeback coop/io detected=true runs=1 methods=50 violation=observer";
    "cache.stale_writeback coop/view detected=true runs=1 methods=7 violation=invariant";
    "cache.stale_writeback coop/race detected=false runs=20 methods=- violation=-";
    "cache.stale_writeback coop/lin detected=true runs=1 methods=159 violation=not-linearizable nodes=6661";
    "cache.stale_writeback explore/view detected=true runs=3 methods=3 violation=invariant";
    "cache.unreleased_lock coop/monitor detected=true runs=1 methods=- violation=resource-leak@4";
    "cache.unreleased_lock coop/view detected=false runs=10 methods=- violation=-";
    "instrument.dropped_block coop/io detected=false runs=80 methods=- violation=-";
    "instrument.dropped_block coop/view detected=true runs=2 methods=67 violation=view";
    "instrument.dropped_block coop/race detected=false runs=20 methods=- violation=-";
    "instrument.dropped_block coop/lin detected=false runs=40 methods=- violation=-";
    "instrument.dropped_block explore/view detected=false runs=15000 methods=- violation=-";
    "multiset_btree.misplaced_commit coop/io detected=false runs=80 methods=- violation=-";
    "multiset_btree.misplaced_commit coop/view detected=true runs=1 methods=8 violation=view";
    "multiset_btree.misplaced_commit coop/race detected=false runs=20 methods=- violation=-";
    "multiset_btree.misplaced_commit coop/lin detected=false runs=40 methods=- violation=-";
    "multiset_btree.misplaced_commit explore/view detected=true runs=1 methods=32 violation=view";
    "multiset_vector.lost_update coop/io detected=true runs=1 methods=14 violation=observer";
    "multiset_vector.lost_update coop/view detected=true runs=1 methods=1 violation=view";
    "multiset_vector.lost_update coop/race detected=true runs=1 methods=- violation=A[0].elt";
    "multiset_vector.lost_update coop/lin detected=true runs=1 methods=100 violation=not-linearizable nodes=266";
    "multiset_vector.lost_update explore/view detected=true runs=132 methods=4 violation=view";
  ]

let render_cell fault (c : Mutants.cell) =
  let opt f = function Some x -> f x | None -> "-" in
  Printf.sprintf "%s %s/%s detected=%b runs=%d methods=%s violation=%s" fault c.regime
    c.mode c.detected c.runs (opt string_of_int c.methods_checked) (opt Fun.id c.tag)

let test_quick_matrix_pinned () =
  let cells =
    List.concat_map
      (fun (row : Mutants.row) ->
        List.filter_map
          (fun (c : Mutants.cell) ->
            if c.regime = "coop" || c.regime = "explore" then
              Some (render_cell (Vyrd_faults.Faults.name row.fault) c)
            else None)
          row.cells)
      (Mutants.run_all Mutants.quick)
  in
  Alcotest.(check (list string)) "coop and explore cells" pinned_matrix cells

(* --- checkpoint payloads and statistics ---------------------------------

   The bytes of a mid-stream [Farm.checkpoint] ([farm/1] carrying one
   [checker/1] payload per lane) and the statistics of a whole-log check
   are part of the contract too: old spools must still resume, and
   [Report.stats] reaches the wire in every verdict.  How the checker
   resolves method names must not move either. *)

module Farm = Vyrd_pipeline.Farm

(* Feed [log] through a farm of [shards], checkpointing after a sixteenth,
   a third and two thirds of the stream; each checkpoint renders as the MD5 of
   its textual [Repr] (or "none" once a lane has convicted). *)
let checkpoint_digests shards log =
  let evs = Log.snapshot log in
  let n = Array.length evs in
  let farm = Farm.start ~level:`Full shards in
  let marks = ref [] in
  Array.iteri
    (fun i ev ->
      Farm.feed farm ev;
      if i + 1 = n / 16 || i + 1 = n / 3 || i + 1 = 2 * n / 3 then
        marks :=
          (match Farm.checkpoint farm with
          | Some r -> Digest.to_hex (Digest.string (Repr.to_string r))
          | None -> "none")
          :: !marks)
    evs;
  let r = Farm.finish farm in
  String.concat " "
    (List.rev !marks
    @ [ Report.tag r.Farm.merged;
        (match Farm.min_fail_index r with Some i -> string_of_int i | None -> "-") ])

let checkpoint_case seed ~bug =
  let w = Workload.v ~config:(config seed) ~bug composite in
  let log = Workload.log w in
  digest_lines (fun emit ->
      emit (checkpoint_digests [ Workload.composite_shard w `Io ] log);
      emit (checkpoint_digests [ Workload.composite_shard w `View ] log);
      emit (checkpoint_digests (Workload.shards w `View) log))

let render_stats (r : Report.t) idx =
  let s = r.Report.stats in
  Printf.sprintf "%s@%s events=%d methods=%d commits=%d per_method=%s" (Report.tag r)
    (match idx with Some i -> string_of_int i | None -> "-")
    s.Report.events_processed s.Report.methods_checked s.Report.commits_resolved
    (String.concat ","
       (List.map (fun (m, n) -> Printf.sprintf "%s:%d" m n) s.Report.per_method))

let stats_case (name, subjects) ~bug () =
  let spec, view = Workload.product (Workload.v subjects) in
  let invariants = List.concat_map (fun (s : Subjects.t) -> s.invariants) subjects in
  digest_lines (fun emit ->
      List.iter
        (fun seed ->
          let log = full_log subjects ~bug seed in
          let io, io_idx = Checker.check_indexed ~mode:`Io ~invariants log spec in
          let vw, vw_idx = Checker.check_indexed ~mode:`View ~view ~invariants log spec in
          emit
            (Printf.sprintf "%s seed=%d io %s view %s" name seed (render_stats io io_idx)
               (render_stats vw vw_idx)))
        seeds)

let state_cases =
  List.concat_map
    (fun bug ->
      List.map
        (fun seed ->
          (Printf.sprintf "checkpoints composite bug=%b seed=%d" bug seed,
           fun () -> checkpoint_case seed ~bug))
        [ 1; 2; 3 ])
    [ false; true ]
  @ List.concat_map
      (fun ((name, _) as group) ->
        List.map
          (fun bug -> (Printf.sprintf "stats %s bug=%b" name bug, stats_case group ~bug))
          [ false; true ])
      [
        ("composite", composite);
        ("Multiset-BinaryTree", [ Subjects.multiset_btree ]);
        ("BLinkTree", [ Subjects.blink_tree ]);
        ("Cache", [ Subjects.cache ]);
      ]

let expected_state =
  [
    ("checkpoints composite bug=false seed=1", "8526106061347b8860f77c28d9444313");
    ("checkpoints composite bug=false seed=2", "8bf42f8f594df13d6da0787110ba0321");
    ("checkpoints composite bug=false seed=3", "7b263e0e4a513efbfe6f919d237f74de");
    ("checkpoints composite bug=true seed=1", "5aef9e196cfb88788e2c72a7a3488fc2");
    ("checkpoints composite bug=true seed=2", "774f9b70bfb953179663ee7494f04edb");
    ("checkpoints composite bug=true seed=3", "99a3b406caf87b9c4c10fb4ff22f4bf6");
    ("stats composite bug=false", "398dcf7f33223e21e3204e8b419c3bf9");
    ("stats composite bug=true", "2a4d407524a82d7f1a6b813b6241ae15");
    ("stats Multiset-BinaryTree bug=false", "4870ced5150e2a067bea1daf39f04cf6");
    ("stats Multiset-BinaryTree bug=true", "44f0e8414db5ec0d8aff53fe25cdf3ac");
    ("stats BLinkTree bug=false", "e0e37ea88e804cd90737cc36be9a4ad4");
    ("stats BLinkTree bug=true", "e826c0ffea29088be49373918573788c");
    ("stats Cache bug=false", "ba559b4193837dc046c5af716de01e58");
    ("stats Cache bug=true", "c284c42b994767d1c75f60e86990b73e");
  ]

let test_state_pinned () =
  List.iter
    (fun (name, run) ->
      let got = run () in
      match List.assoc_opt name expected_state with
      | Some want -> Alcotest.(check string) name want got
      | None -> Alcotest.failf "no pinned digest for %s" name)
    state_cases

let suite =
  [
    Alcotest.test_case "schedules and PRNG streams match the golden digests" `Quick test_golden;
    Alcotest.test_case "coop fast path = ?decide oracle (logs, steps, Livelock)" `Quick
      test_fast_path_matches_oracle;
    Alcotest.test_case "quick mutant matrix: coop and explore cells pinned" `Quick
      test_quick_matrix_pinned;
    Alcotest.test_case "checkpoint payloads and check statistics pinned" `Quick
      test_state_pinned;
  ]
