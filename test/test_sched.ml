(* Tests for the scheduling substrate: the deterministic cooperative engine,
   the native engine, and their synchronization primitives. *)

open Vyrd_sched

let test_spawn_all_run () =
  let n = 50 in
  let count = ref 0 in
  Coop.run (fun s ->
      for _ = 1 to n do
        s.spawn (fun () ->
            s.yield ();
            incr count)
      done);
  Alcotest.(check int) "all spawned fibers ran" n !count

let trace_of_seed seed =
  (* Record the interleaving of three chatty fibers as a string. *)
  let buf = Buffer.create 64 in
  Coop.run ~seed (fun s ->
      for i = 1 to 3 do
        s.spawn (fun () ->
            for _ = 1 to 5 do
              Buffer.add_string buf (string_of_int i);
              s.yield ()
            done)
      done);
  Buffer.contents buf

let test_determinism () =
  for seed = 0 to 9 do
    Alcotest.(check string)
      (Printf.sprintf "seed %d reproduces" seed)
      (trace_of_seed seed) (trace_of_seed seed)
  done

let test_seeds_differ () =
  let distinct =
    List.init 20 trace_of_seed |> List.sort_uniq String.compare |> List.length
  in
  Alcotest.(check bool) "seeds explore several interleavings" true (distinct > 5)

let test_self_ids () =
  let ids = ref [] in
  Coop.run (fun s ->
      for _ = 1 to 4 do
        s.spawn (fun () -> ids := s.self () :: !ids)
      done;
      ids := s.self () :: !ids);
  let sorted = List.sort_uniq compare !ids in
  Alcotest.(check (list int)) "distinct consecutive tids" [ 0; 1; 2; 3; 4 ] sorted

let test_mutex_no_lost_updates () =
  for seed = 0 to 19 do
    let counter = ref 0 in
    Coop.run ~seed (fun s ->
        let m = s.new_mutex ~name:"c" () in
        for _ = 1 to 8 do
          s.spawn (fun () ->
              for _ = 1 to 10 do
                Sched.with_lock m (fun () ->
                    let v = !counter in
                    s.yield ();
                    counter := v + 1)
              done)
        done);
    Alcotest.(check int) (Printf.sprintf "seed %d" seed) 80 !counter
  done

let test_unlocked_updates_get_lost () =
  (* Sanity check for the whole methodology: with the lock removed the same
     program must exhibit lost updates under at least one seed. *)
  let lost = ref false in
  let seed = ref 0 in
  while (not !lost) && !seed < 50 do
    let counter = ref 0 in
    Coop.run ~seed:!seed (fun s ->
        for _ = 1 to 4 do
          s.spawn (fun () ->
              for _ = 1 to 5 do
                let v = !counter in
                s.yield ();
                counter := v + 1
              done)
        done);
    if !counter < 20 then lost := true;
    incr seed
  done;
  Alcotest.(check bool) "a racy interleaving exists" true !lost

let test_mutex_mutual_exclusion () =
  for seed = 0 to 19 do
    let inside = ref 0 and violation = ref false in
    Coop.run ~seed (fun s ->
        let m = s.new_mutex () in
        for _ = 1 to 5 do
          s.spawn (fun () ->
              for _ = 1 to 5 do
                Sched.with_lock m (fun () ->
                    incr inside;
                    if !inside > 1 then violation := true;
                    s.yield ();
                    decr inside)
              done)
        done);
    Alcotest.(check bool) (Printf.sprintf "seed %d exclusive" seed) false !violation
  done

let test_mutex_reentrant () =
  Coop.run (fun s ->
      let m = s.new_mutex () in
      Sched.with_lock m (fun () ->
          Sched.with_lock m (fun () -> s.yield ()));
      (* fully released: another fiber can take it *)
      let acquired = ref false in
      s.spawn (fun () -> Sched.with_lock m (fun () -> acquired := true));
      s.yield ();
      s.yield ();
      Alcotest.(check bool) "released after nested unlock" true !acquired)

let test_unlock_foreign_mutex_rejected () =
  Alcotest.check_raises "unlock without lock"
    (Invalid_argument "unlock: mutex \"m\" is not held") (fun () ->
      Coop.run (fun s ->
          let m = s.new_mutex ~name:"m" () in
          m.unlock ()))

let test_try_lock () =
  Coop.run (fun s ->
      let m = s.new_mutex () in
      Alcotest.(check bool) "free mutex acquired" true (m.try_lock ());
      Alcotest.(check bool) "reentrant try_lock" true (m.try_lock ());
      m.unlock ();
      m.unlock ();
      let observed = ref None in
      Sched.with_lock m (fun () ->
          s.spawn (fun () -> observed := Some (m.try_lock ()));
          s.yield ();
          s.yield ());
      Alcotest.(check (option bool)) "contended try_lock fails" (Some false)
        !observed)

let test_deadlock_detected () =
  let deadlocked = ref 0 in
  for seed = 0 to 29 do
    match
      Coop.run ~seed (fun s ->
          let a = s.new_mutex ~name:"a" () and b = s.new_mutex ~name:"b" () in
          s.spawn (fun () ->
              Sched.with_lock a (fun () ->
                  s.yield ();
                  Sched.with_lock b (fun () -> ())));
          s.spawn (fun () ->
              Sched.with_lock b (fun () ->
                  s.yield ();
                  Sched.with_lock a (fun () -> ()))))
    with
    | () -> ()
    | exception Coop.Deadlock _ -> incr deadlocked
  done;
  Alcotest.(check bool) "ABBA deadlock found under some seed" true (!deadlocked > 0)

let test_deadlock_message_details () =
  (* the diagnostic must name, per blocked thread, the lock it waits on, the
     owner, and the locks it itself holds (from the mutex registry) *)
  let contains hay needle =
    let n = String.length hay and m = String.length needle in
    let rec scan i = i + m <= n && (String.sub hay i m = needle || scan (i + 1)) in
    scan 0
  in
  let msg = ref None in
  let seed = ref 0 in
  while !msg = None && !seed < 50 do
    (match
       Coop.run ~seed:!seed (fun s ->
           let a = s.new_mutex ~name:"a" () and b = s.new_mutex ~name:"b" () in
           s.spawn (fun () ->
               Sched.with_lock a (fun () ->
                   s.yield ();
                   Sched.with_lock b (fun () -> ())));
           s.spawn (fun () ->
               Sched.with_lock b (fun () ->
                   s.yield ();
                   Sched.with_lock a (fun () -> ()))))
     with
    | () -> ()
    | exception Coop.Deadlock m -> msg := Some m);
    incr seed
  done;
  match !msg with
  | None -> Alcotest.fail "ABBA scenario never deadlocked within 50 seeds"
  | Some m ->
    List.iter
      (fun needle ->
        Alcotest.(check bool)
          (Printf.sprintf "%S in %S" needle m)
          true (contains m needle))
      [
        "waits on \"a\"";
        "waits on \"b\"";
        "holding {a}";
        "holding {b}";
        "held by";
      ]

let test_livelock_guard () =
  match
    Coop.run ~max_steps:1000 (fun s ->
        while true do
          s.yield ()
        done)
  with
  | () -> Alcotest.fail "expected Livelock"
  | exception Coop.Livelock n -> Alcotest.(check bool) "steps reported" true (n > 0)

let test_exception_propagates () =
  Alcotest.check_raises "fiber exception resurfaces" Exit (fun () ->
      Coop.run (fun s ->
          s.spawn (fun () -> raise Exit);
          s.yield ()))

let test_atomically_suppresses_interleaving () =
  for seed = 0 to 19 do
    let counter = ref 0 in
    Coop.run ~seed (fun s ->
        for _ = 1 to 6 do
          s.spawn (fun () ->
              for _ = 1 to 5 do
                Sched.atomic s (fun () ->
                    let v = !counter in
                    s.yield ();
                    (* suppressed *)
                    counter := v + 1)
              done)
        done);
    Alcotest.(check int) (Printf.sprintf "seed %d" seed) 30 !counter
  done

let test_rwlock_readers_share () =
  Coop.run (fun s ->
      let l = s.new_rwlock () in
      let concurrent = ref 0 and peak = ref 0 in
      for _ = 1 to 4 do
        s.spawn (fun () ->
            Sched.with_read l (fun () ->
                incr concurrent;
                if !concurrent > !peak then peak := !concurrent;
                s.yield ();
                s.yield ();
                decr concurrent))
      done;
      s.yield ());
  (* seed 0 may or may not overlap all four; just require the run finishes
     and readers were never blocked forever. *)
  Alcotest.(check pass) "terminates" () ()

let test_rwlock_writer_exclusive () =
  for seed = 0 to 19 do
    let readers = ref 0 and writing = ref false and violation = ref false in
    Coop.run ~seed (fun s ->
        let l = s.new_rwlock () in
        for _ = 1 to 3 do
          s.spawn (fun () ->
              for _ = 1 to 4 do
                Sched.with_read l (fun () ->
                    incr readers;
                    if !writing then violation := true;
                    s.yield ();
                    decr readers)
              done)
        done;
        for _ = 1 to 2 do
          s.spawn (fun () ->
              for _ = 1 to 3 do
                Sched.with_write l (fun () ->
                    writing := true;
                    if !readers > 0 then violation := true;
                    s.yield ();
                    writing := false)
              done)
        done);
    Alcotest.(check bool) (Printf.sprintf "seed %d" seed) false !violation
  done

let test_stats () =
  let stats = Coop.run_with_stats (fun s -> s.spawn (fun () -> s.yield ())) in
  Alcotest.(check int) "threads counted" 2 stats.Coop.threads;
  Alcotest.(check bool) "steps counted" true (stats.Coop.steps > 0)

(* ------------------------------------------------------------------ *)
(* Native engine *)

let test_native_counter () =
  let counter = ref 0 in
  Native.run (fun s ->
      let m = s.new_mutex () in
      for _ = 1 to 8 do
        s.spawn (fun () ->
            for _ = 1 to 1000 do
              Sched.with_lock m (fun () -> incr counter)
            done)
      done);
  Alcotest.(check int) "native locked counter" 8000 !counter

let test_native_exception () =
  Alcotest.check_raises "native thread exception resurfaces" Exit (fun () ->
      Native.run (fun s -> s.spawn (fun () -> raise Exit)))

let test_native_tids_distinct () =
  let ids = ref [] in
  Native.run (fun s ->
      let m = s.new_mutex () in
      for _ = 1 to 6 do
        s.spawn (fun () ->
            let me = s.self () in
            Sched.with_lock m (fun () -> ids := me :: !ids))
      done);
  Alcotest.(check int) "six distinct tids" 6
    (List.length (List.sort_uniq compare !ids))

let test_native_rwlock () =
  let acc = ref 0 in
  Native.run (fun s ->
      let l = s.new_rwlock () in
      for _ = 1 to 4 do
        s.spawn (fun () ->
            for _ = 1 to 100 do
              Sched.with_write l (fun () -> incr acc)
            done)
      done;
      for _ = 1 to 4 do
        s.spawn (fun () ->
            for _ = 1 to 100 do
              Sched.with_read l (fun () -> ignore !acc)
            done)
      done);
  Alcotest.(check int) "writes all applied" 400 !acc

(* ------------------------------------------------------------------ *)
(* Vec and Prng properties *)

let qcheck name gen prop = QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name gen prop)

let vec_model_prop =
  let open QCheck2 in
  qcheck "Vec.push/to_list agrees with list model"
    Gen.(list int)
    (fun xs ->
      let v = Vec.create () in
      List.iter (Vec.push v) xs;
      Vec.to_list v = xs && Vec.length v = List.length xs)

let vec_swap_remove_prop =
  let open QCheck2 in
  qcheck "Vec.swap_remove preserves multiset of elements"
    Gen.(pair (list_size (int_range 1 20) int) (int_range 0 1000))
    (fun (xs, r) ->
      let v = Vec.of_list xs in
      let i = r mod List.length xs in
      let removed = Vec.swap_remove v i in
      let remaining = Vec.to_list v in
      List.sort compare (removed :: remaining) = List.sort compare xs)

let vec_pop_prop =
  let open QCheck2 in
  qcheck "Vec.pop returns elements in LIFO order"
    Gen.(list_size (int_range 1 20) int)
    (fun xs ->
      let v = Vec.of_list xs in
      let out = List.rev_map (fun _ -> Vec.pop v) xs in
      out = xs && Vec.is_empty v)

(* Removed elements and spare capacity must not keep values alive: track
   every element through a weak pointer and, after a full major GC, require
   that exactly the elements still in the vector survive. *)
let test_vec_drops_references () =
  let n = 100 in
  let weak = Weak.create n in
  let fresh v =
    for i = 0 to n - 1 do
      let x = ref i in
      Weak.set weak i (Some x);
      Vec.push v x
    done
  in
  let survivors v =
    let live = List.map (fun x -> !x) (Vec.to_list v) in
    Gc.full_major ();
    List.iter
      (fun i ->
        match Weak.get weak i with
        | Some _ when not (List.mem i live) -> Alcotest.failf "element %d outlived its removal" i
        | None when List.mem i live -> Alcotest.failf "live element %d was collected" i
        | _ -> ())
      (List.init n Fun.id)
  in
  let v = Vec.create () in
  fresh v;
  Vec.drop_prefix v 99;
  survivors v;
  Vec.clear v;
  survivors v;
  fresh v;
  for _ = 1 to 30 do
    ignore (Vec.pop v)
  done;
  survivors v;
  for _ = 1 to 30 do
    ignore (Vec.swap_remove v 3)
  done;
  survivors v;
  (* a sliding window: push at the end, drop from the front, many times
     over the capacity, keeps only the window *)
  Vec.clear v;
  fresh v;
  Vec.drop_prefix v 10;
  for round = 1 to 40 do
    Vec.push v (ref (-round));
    Vec.drop_prefix v 1
  done;
  survivors v;
  Alcotest.(check int) "window length" 90 (Vec.length v)

let vec_window_prop =
  let open QCheck2 in
  qcheck "Vec push/drop_prefix/pop/swap_remove agree with a list model"
    Gen.(list (pair (int_range 0 3) (int_range 0 20)))
    (fun ops ->
      let v = Vec.create () in
      let model = ref [] in
      let next = ref 0 in
      List.iter
        (fun (op, k) ->
          let len = List.length !model in
          match op with
          | 0 ->
            for _ = 0 to k do
              Vec.push v !next;
              model := !model @ [ !next ];
              incr next
            done
          | 1 ->
            let k = min k len in
            Vec.drop_prefix v k;
            model := List.filteri (fun i _ -> i >= k) !model
          | 2 ->
            if len > 0 then begin
              ignore (Vec.pop v);
              model := List.filteri (fun i _ -> i < len - 1) !model
            end
          | _ ->
            if len > 0 then begin
              let i = k mod len in
              ignore (Vec.swap_remove v i);
              let last = List.nth !model (len - 1) in
              model :=
                List.filteri (fun j _ -> j < len - 1) !model
                |> List.mapi (fun j x -> if j = i then last else x)
            end)
        ops;
      Vec.to_list v = !model && Vec.length v = List.length !model)

let prng_bound_prop =
  let open QCheck2 in
  qcheck "Prng.int stays within bounds"
    Gen.(pair int (int_range 1 1_000_000))
    (fun (seed, bound) ->
      let g = Prng.create seed in
      List.for_all
        (fun _ ->
          let v = Prng.int g bound in
          v >= 0 && v < bound)
        (List.init 50 Fun.id))

let prng_determinism_prop =
  let open QCheck2 in
  qcheck "Prng is a pure function of its seed" Gen.int (fun seed ->
      let a = Prng.create seed and b = Prng.create seed in
      List.for_all (fun _ -> Prng.bits64 a = Prng.bits64 b) (List.init 20 Fun.id))

(* --- long runs ------------------------------------------------------------ *)

(* A fiber's start runs [match_with] from inside the handler that picked it,
   one nested frame per start; these runs start 20,000 fibers.  Every
   spawn, yield and start is one step, and so is the pick after each
   fiber's finish but the last. *)
let test_long_runs () =
  let n = 20_000 in
  let stats =
    Coop.run_with_stats ~seed:3 (fun s ->
        for _ = 1 to n do
          s.spawn (fun () ->
              for _ = 1 to 3 do
                s.yield ()
              done)
        done)
  in
  Alcotest.(check int) "sequential spawns: threads" (n + 1) stats.Coop.threads;
  Alcotest.(check int) "sequential spawns: steps" ((5 * n) + 1) stats.Coop.steps;
  let stats =
    Coop.run_with_stats ~seed:3 (fun s ->
        let rec chain k () = if k > 0 then s.spawn (chain (k - 1)) in
        chain n ())
  in
  Alcotest.(check int) "spawn chain: threads" (n + 1) stats.Coop.threads;
  Alcotest.(check int) "spawn chain: steps" ((2 * n) + 1) stats.Coop.steps

(* --- the engine against its trampoline oracle ----------------------------- *)

(* A small random program for the main fiber: every scheduling point of the
   engine (yields, spawns, blocking lock and rwlock acquisitions) appears,
   with reentrant locking, [try_lock], [atomically] sections, a raising
   fiber and an ABBA pair that deadlocks under some schedules. *)
type op =
  | Yield
  | Spawn of op list
  | Locked of int * op list  (* [with_lock] on one of two mutexes *)
  | Try_locked of int * op list  (* the body runs, and unlocks, if [try_lock] won *)
  | Read of op list
  | Write of op list
  | Atomic of op list
  | Raise
  | Abba  (* two fibers taking the two mutexes in opposite orders *)

let rec show_op = function
  | Yield -> "yield"
  | Spawn b -> "spawn" ^ show_body b
  | Locked (m, b) -> Printf.sprintf "lock%d%s" m (show_body b)
  | Try_locked (m, b) -> Printf.sprintf "try%d%s" m (show_body b)
  | Read b -> "read" ^ show_body b
  | Write b -> "write" ^ show_body b
  | Atomic b -> "atomic" ^ show_body b
  | Raise -> "raise"
  | Abba -> "abba"

and show_body b = "[" ^ String.concat "; " (List.map show_op b) ^ "]"

let gen_program =
  let open QCheck2.Gen in
  sized_size (int_bound 16)
  @@ fix (fun self n ->
         let leaf = frequency [ (16, pure Yield); (1, pure Raise); (1, pure Abba) ] in
         if n <= 0 then list_size (int_bound 3) leaf
         else
           let body = self (n / 2) in
           list_size (int_range 1 4)
             (frequency
                [
                  (5, leaf);
                  (3, map (fun b -> Spawn b) body);
                  (2, map2 (fun m b -> Locked (m, b)) (int_bound 1) body);
                  (1, map2 (fun m b -> Try_locked (m, b)) (int_bound 1) body);
                  (1, map (fun b -> Read b) body);
                  (1, map (fun b -> Write b) body);
                  (1, map (fun b -> Atomic b) body);
                ]))

(* Runs [program] on [s], writing the running thread before every operation
   and at every fiber's end. *)
let exec_program trace program (s : Sched.t) =
  let mutexes = [| s.new_mutex ~name:"a" (); s.new_mutex ~name:"b" () |] in
  let rw = s.new_rwlock ~name:"rw" () in
  let mark () = Buffer.add_string trace (Printf.sprintf "%d " (s.self ())) in
  let rec body ops =
    List.iter exec ops;
    mark ()
  and exec op =
    mark ();
    match op with
    | Yield -> s.yield ()
    | Spawn b -> s.spawn (fun () -> body b)
    | Locked (m, b) -> Sched.with_lock mutexes.(m) (fun () -> body b)
    | Try_locked (m, b) ->
      if mutexes.(m).try_lock () then begin
        body b;
        mutexes.(m).unlock ()
      end
    | Read b -> Sched.with_read rw (fun () -> body b)
    | Write b -> Sched.with_write rw (fun () -> body b)
    | Atomic b -> Sched.atomic s (fun () -> body b)
    | Raise -> failwith (Printf.sprintf "raised by %d" (s.self ()))
    | Abba ->
      let pair x y () = Sched.with_lock x (fun () -> s.yield (); body [ Locked (y, []) ]) in
      s.spawn (pair mutexes.(0) 1);
      s.spawn (pair mutexes.(1) 0)
  in
  body program

type outcome =
  | Finished of Coop.stats
  | Livelocked of int
  | Deadlocked of string
  | Raised of string

let show_outcome = function
  | Finished { Coop.steps; threads } -> Printf.sprintf "finished: %d steps, %d threads" steps threads
  | Livelocked n -> Printf.sprintf "livelock at %d" n
  | Deadlocked m -> m
  | Raised e -> "raised " ^ e

(* One run under [engine]: the thread trace and the outcome.  With
   [explore], decisions come from a [decide] that sometimes keeps the
   running thread, the path [Explore] takes. *)
let outcome_of engine ~seed ~max_steps ~explore program =
  let trace = Buffer.create 256 in
  let decide =
    if not explore then None
    else
      let rng = Prng.create seed in
      Some
        (fun (c : Coop.choice) ->
          let n = Array.length c.candidates in
          match c.running with
          | Some t when Prng.int rng 3 = 0 ->
            let rec index i = if c.candidates.(i) = t then i else index (i + 1) in
            index 0
          | Some _ | None -> Prng.int rng n)
  in
  let outcome =
    match engine ~seed ~max_steps ?decide (exec_program trace program) with
    | stats -> Finished stats
    | exception Coop.Livelock n -> Livelocked n
    | exception Coop.Deadlock m -> Deadlocked m
    | exception e -> Raised (Printexc.to_string e)
  in
  (Buffer.contents trace, outcome)

let engine_matches_trampoline =
  let open QCheck2 in
  let gen =
    Gen.(
      quad (int_bound 1_000_000) (opt (int_range 1 60)) bool gen_program)
  in
  let print (seed, max_steps, explore, program) =
    Printf.sprintf "seed %d, max_steps %s, explore %b, program %s" seed
      (match max_steps with Some m -> string_of_int m | None -> "default")
      explore (show_body program)
  in
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 29 |])
    (Test.make ~name:"coop makes the trampoline's scheduling decisions" ~count:500 ~print gen
       (fun (seed, max_steps, explore, program) ->
         let run engine = outcome_of engine ~seed ~max_steps ~explore program in
         let trace, outcome =
           run (fun ~seed ~max_steps ?decide main ->
               Coop.run_with_stats ~seed ?max_steps ?decide main)
         and oracle_trace, oracle_outcome =
           run (fun ~seed ~max_steps ?decide main ->
               Coop_trampoline.run_with_stats ~seed ?max_steps ?decide main)
         in
         if trace <> oracle_trace then
           Test.fail_reportf "trace %S, trampoline %S" trace oracle_trace
         else if outcome <> oracle_outcome then
           Test.fail_reportf "%s, trampoline %s" (show_outcome outcome)
             (show_outcome oracle_outcome)
         else true))

let suite =
  [
    ("coop spawn runs all fibers", `Quick, test_spawn_all_run);
    ("coop is deterministic per seed", `Quick, test_determinism);
    ("coop seeds explore interleavings", `Quick, test_seeds_differ);
    ("coop assigns distinct tids", `Quick, test_self_ids);
    ("coop mutex prevents lost updates", `Quick, test_mutex_no_lost_updates);
    ("coop races manifest without locks", `Quick, test_unlocked_updates_get_lost);
    ("coop mutex mutual exclusion", `Quick, test_mutex_mutual_exclusion);
    ("coop mutex is reentrant", `Quick, test_mutex_reentrant);
    ("coop foreign unlock rejected", `Quick, test_unlock_foreign_mutex_rejected);
    ("coop try_lock", `Quick, test_try_lock);
    ("coop detects ABBA deadlock", `Quick, test_deadlock_detected);
    ("coop deadlock message names locks held", `Quick, test_deadlock_message_details);
    ("coop livelock guard", `Quick, test_livelock_guard);
    ("coop propagates exceptions", `Quick, test_exception_propagates);
    ("coop atomically is atomic", `Quick, test_atomically_suppresses_interleaving);
    ("coop rwlock readers share", `Quick, test_rwlock_readers_share);
    ("coop rwlock writer exclusive", `Quick, test_rwlock_writer_exclusive);
    ("coop run statistics", `Quick, test_stats);
    ("native locked counter", `Quick, test_native_counter);
    ("native exception propagates", `Quick, test_native_exception);
    ("native distinct tids", `Quick, test_native_tids_distinct);
    ("native rwlock", `Quick, test_native_rwlock);
    vec_model_prop;
    vec_swap_remove_prop;
    vec_pop_prop;
    ("vec removals release their elements", `Quick, test_vec_drops_references);
    vec_window_prop;
    prng_bound_prop;
    prng_determinism_prop;
    ("coop long runs", `Quick, test_long_runs);
    engine_matches_trampoline;
  ]
