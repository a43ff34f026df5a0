(* Unit and property tests for the VYRD core: value representation, event
   serialization, the log, shadow replay, views, and online checking. *)

open Vyrd
module Tid = Vyrd_sched.Tid
module Farm = Vyrd_pipeline.Farm

let qcheck t = QCheck_alcotest.to_alcotest t

(* --- Repr ---------------------------------------------------------------- *)

let repr_gen =
  let open QCheck2.Gen in
  sized @@ fix (fun self n ->
      let base =
        oneof
          [
            return Repr.Unit;
            map (fun b -> Repr.Bool b) bool;
            map (fun i -> Repr.Int i) int;
            map (fun s -> Repr.Str s) (string_size (int_range 0 12));
          ]
      in
      if n = 0 then base
      else
        frequency
          [
            (3, base);
            (1, map2 (fun a b -> Repr.Pair (a, b)) (self (n / 2)) (self (n / 2)));
            (1, map (fun vs -> Repr.List vs) (list_size (int_range 0 4) (self (n / 2))));
          ])

let repr_roundtrip =
  qcheck
    (QCheck2.Test.make ~name:"Repr text roundtrip" ~count:500 repr_gen (fun v ->
         Repr.equal (Repr.of_text (Repr.to_text v)) v))

let repr_sorted_list_canonical =
  qcheck
    (QCheck2.Test.make ~name:"Repr.sorted_list is order-insensitive"
       QCheck2.Gen.(list (map (fun i -> Repr.Int i) int))
       (fun vs ->
         let shuffled = List.rev vs in
         Repr.equal (Repr.sorted_list vs) (Repr.sorted_list shuffled)))

(* Pairs of trees built over a shared pool of subtrees, so that physically
   equal, structurally equal and differing subtrees all meet. *)
let shared_trees_gen =
  let open QCheck2.Gen in
  let* pool = list_size (int_range 1 4) repr_gen in
  let tree =
    sized_size (int_bound 16) @@ fix (fun self n ->
        let leaf =
          oneof
            [ oneofl pool; return Repr.Unit; map (fun b -> Repr.Bool b) bool;
              map (fun i -> Repr.Int i) (int_range 0 2);
              map (fun s -> Repr.Str s) (oneofl [ ""; "a"; "b" ]) ]
        in
        if n = 0 then leaf
        else
          frequency
            [
              (2, leaf);
              (1, map2 (fun a b -> Repr.Pair (a, b)) (self (n / 2)) (self (n / 2)));
              (1, map (fun vs -> Repr.List vs) (list_size (int_range 0 3) (self (n / 2))));
            ])
  in
  let rec copy = function
    | Repr.Pair (a, b) -> Repr.Pair (copy a, copy b)
    | Repr.List vs -> Repr.List (List.map copy vs)
    | Repr.Bool b -> Repr.Bool b
    | Repr.Int i -> Repr.Int i
    | Repr.Str s -> Repr.Str (String.init (String.length s) (String.get s))
    | Repr.Unit -> Repr.Unit
  in
  oneof [ pair tree tree; map (fun a -> (a, copy a)) tree; map (fun a -> (a, a)) tree ]

let repr_equal_structural =
  qcheck
    (QCheck2.Test.make ~name:"Repr.equal is structural equality" ~count:1000
       ~print:(fun (a, b) -> Repr.to_string a ^ " vs " ^ Repr.to_string b)
       shared_trees_gen
       (fun (a, b) -> Repr.equal a b = (a = b) && Repr.equal b a = (a = b)))

let test_repr_parse_errors () =
  List.iter
    (fun s ->
      match Repr.of_text s with
      | exception Repr.Parse_error _ -> ()
      | v -> Alcotest.failf "%S unexpectedly parsed as %a" s Repr.pp v)
    [ ""; "("; "(L"; "(P 1)"; "(P 1 2 3)"; "\"abc"; "(X 1)"; "1 2"; "--3"; "\"\\q\"" ]

let test_repr_escapes () =
  let v = Repr.Str "a\"b\\c\nd\x00e\xff" in
  Alcotest.(check bool) "binary string survives" true
    (Repr.equal (Repr.of_text (Repr.to_text v)) v)

(* --- Event --------------------------------------------------------------- *)

let event_gen =
  let open QCheck2.Gen in
  let name = string_size ~gen:(char_range 'a' 'z') (int_range 1 8) in
  let tid = int_range 0 40 in
  oneof
    [
      map3 (fun tid mid args -> Event.Call { tid; mid; args }) tid name
        (list_size (int_range 0 3) repr_gen);
      map3 (fun tid mid value -> Event.Return { tid; mid; value }) tid name repr_gen;
      map (fun tid -> Event.Commit { tid }) tid;
      map3 (fun tid var value -> Event.Write { tid; var; value }) tid name repr_gen;
      map (fun tid -> Event.Block_begin { tid }) tid;
      map (fun tid -> Event.Block_end { tid }) tid;
      map2 (fun tid var -> Event.Read { tid; var }) tid name;
      map2 (fun tid lock -> Event.Acquire { tid; lock }) tid name;
      map2 (fun tid lock -> Event.Release { tid; lock }) tid name;
    ]

let event_roundtrip =
  qcheck
    (QCheck2.Test.make ~name:"Event line roundtrip" ~count:500 event_gen (fun ev ->
         Event.equal (Event.of_line (Event.to_line ev)) ev))

let log_file_roundtrip =
  qcheck
    (QCheck2.Test.make ~name:"Log file roundtrip" ~count:50
       QCheck2.Gen.(list_size (int_range 0 40) event_gen)
       (fun evs ->
         let log = Log.of_events evs in
         let path = Filename.temp_file "vyrd_test" ".log" in
         Log.to_file path log;
         let log' = Log.of_file path in
         Sys.remove path;
         List.for_all2 Event.equal (Log.events log) (Log.events log')))

(* --- Log levels and subscription ----------------------------------------- *)

let test_log_levels () =
  let call = Event.Call { tid = 0; mid = "m"; args = [] } in
  let write = Event.Write { tid = 0; var = "v"; value = Repr.Unit } in
  let read = Event.Read { tid = 0; var = "v" } in
  let count level =
    let log = Log.create ~level () in
    List.iter (Log.append log) [ call; write; read ];
    Log.length log
  in
  Alcotest.(check int) "`None drops all" 0 (count `None);
  Alcotest.(check int) "`Io keeps calls" 1 (count `Io);
  Alcotest.(check int) "`View keeps writes" 2 (count `View);
  Alcotest.(check int) "`Full keeps reads" 3 (count `Full)

let test_log_subscription () =
  let log = Log.create ~level:`Io () in
  let seen = ref 0 in
  Log.subscribe log (fun _ -> incr seen);
  Log.append log (Event.Commit { tid = 1 });
  Log.append log (Event.Read { tid = 1; var = "x" });
  (* filtered: no notification *)
  Alcotest.(check int) "subscriber sees admitted events only" 1 !seen

(* --- Replay -------------------------------------------------------------- *)

let test_replay_plain_writes () =
  let r = Replay.create () in
  Replay.write r 1 "x" (Repr.Int 1);
  Replay.write r 2 "y" (Repr.Int 2);
  Replay.write r 1 "x" (Repr.Int 3);
  Alcotest.(check bool) "latest value" true (Replay.lookup r "x" = Some (Repr.Int 3));
  Alcotest.(check bool) "other var" true (Replay.lookup r "y" = Some (Repr.Int 2));
  Alcotest.(check bool) "absent" true (Replay.lookup r "z" = None)

let test_replay_block_buffers () =
  let r = Replay.create () in
  Replay.block_begin r 1;
  Replay.write r 1 "x" (Repr.Int 1);
  Alcotest.(check bool) "buffered write invisible" true (Replay.lookup r "x" = None);
  (* another thread's writes flow through *)
  Replay.write r 2 "y" (Repr.Int 9);
  Alcotest.(check bool) "other thread visible" true
    (Replay.lookup r "y" = Some (Repr.Int 9));
  Replay.commit r 1;
  Alcotest.(check bool) "published at commit" true
    (Replay.lookup r "x" = Some (Repr.Int 1));
  (* post-commit in-block writes apply immediately *)
  Replay.write r 1 "x" (Repr.Int 2);
  Alcotest.(check bool) "post-commit applies" true
    (Replay.lookup r "x" = Some (Repr.Int 2));
  Replay.block_end r 1

let test_replay_block_end_publishes () =
  let r = Replay.create () in
  Replay.block_begin r 1;
  Replay.write r 1 "x" (Repr.Int 1);
  Replay.block_end r 1;
  (* a block that never commits publishes at its end *)
  Alcotest.(check bool) "published at end" true (Replay.lookup r "x" = Some (Repr.Int 1))

let test_replay_ill_formed () =
  let r = Replay.create () in
  Replay.block_begin r 1;
  Alcotest.check_raises "nested block" (Replay.Ill_formed "T1: nested commit block")
    (fun () -> Replay.block_begin r 1);
  let r2 = Replay.create () in
  Alcotest.check_raises "end without begin"
    (Replay.Ill_formed "T1: block end without begin") (fun () -> Replay.block_end r2 1)

let test_replay_dirty_tracking () =
  let r = Replay.create () in
  let stale () = Replay.take_stale r ~owner:1 in
  ignore (stale ());
  (* bit 1 reads a, bit 2 reads b; a miss registers the reader too *)
  ignore (Replay.read r ~reader:1 "a");
  ignore (Replay.read r ~reader:2 "b");
  Replay.write r 1 "a" (Repr.Int 1);
  Replay.write r 1 "b" (Repr.Int 2);
  Alcotest.(check int) "both dirty" 3 (stale ());
  Alcotest.(check int) "reset" 0 (stale ());
  (* rewriting the same value does not dirty *)
  Replay.write r 1 "a" (Repr.Int 1);
  Alcotest.(check int) "no-op write" 0 (stale ());
  Replay.write r 1 "a" (Repr.Int 5);
  Alcotest.(check int) "changed" 1 (stale ())

(* --- Views ---------------------------------------------------------------- *)

let test_keyed_view_incremental () =
  let view =
    View.Keyed
      {
        keys = [ Repr.Str "a"; Repr.Str "b" ];
        project = (fun lookup key ->
            match key with Repr.Str var -> lookup var | _ -> None);
      }
  in
  let eval = View.make_eval view in
  let r = Replay.create () in
  Replay.write r 1 "a" (Repr.Int 1);
  let v1 = View.recompute eval r in
  Alcotest.(check bool) "one entry" true
    (Repr.equal v1 (View.canonical_of_assoc [ (Repr.Str "a", Repr.Int 1) ]));
  Alcotest.(check int) "first recompute projects every key" 2 (View.projections eval);
  Replay.write r 1 "b" (Repr.Int 2);
  let v2 = View.recompute eval r in
  Alcotest.(check bool) "two entries" true
    (Repr.equal v2
       (View.canonical_of_assoc [ (Repr.Str "a", Repr.Int 1); (Repr.Str "b", Repr.Int 2) ]));
  (* only the written key is reprojected *)
  Alcotest.(check int) "a write reprojects its key" 3 (View.projections eval);
  let v3 = View.recompute eval r in
  Alcotest.(check bool) "stable" true (Repr.equal v2 v3);
  Alcotest.(check int) "no new projections" 3 (View.projections eval)

(* --- memoized [Full] views ---------------------------------------------------- *)

let var i = Printf.sprintf "v%d" i

(* Three [Full] components over v0..v7 with overlapping, data-dependent
   read sets; v8 and v9 are read by none.  [counts.(i)] counts component
   i's evaluations. *)
let memo_view counts =
  let int_of lookup v = match lookup v with Some (Repr.Int i) -> i | _ -> -1 in
  let counted i f =
    View.Full
      (fun lookup ->
        counts.(i) <- counts.(i) + 1;
        f lookup)
  in
  let a =
    counted 0 (fun lookup ->
        let v0 = int_of lookup "v0" in
        (* reads v2 only while v0 is odd *)
        Repr.List
          [ Repr.Int v0; Repr.Int (int_of lookup "v1");
            (if v0 land 1 = 1 then Repr.Int (int_of lookup "v2") else Repr.Unit) ])
  in
  let b =
    counted 1 (fun lookup ->
        Repr.List (List.map (fun v -> Repr.Int (int_of lookup v)) [ "v3"; "v4"; "v5" ]))
  in
  let c =
    counted 2 (fun lookup ->
        (* follows a pointer: v6 names the variable read next *)
        let next = match lookup "v6" with Some (Repr.Int i) -> var (i mod 8) | _ -> "v7" in
        Repr.Pair (Repr.Int (int_of lookup "v2"), Repr.Int (int_of lookup next)))
  in
  View.Pair (a, View.Pair (b, c))

let test_memo_recomputes_stale_only () =
  let counts = Array.make 3 0 in
  let eval = View.make_eval (memo_view counts) in
  let r = Replay.create () in
  let step writes =
    List.iter (fun (v, x) -> Replay.write r 1 (var v) (Repr.Int x)) writes;
    ignore (View.recompute eval r);
    Array.to_list counts
  in
  let check what want got = Alcotest.(check (list int)) what want got in
  check "first commit evaluates all" [ 1; 1; 1 ] (step [ (0, 0) ]);
  check "nothing written" [ 1; 1; 1 ] (step []);
  check "v3 is b's" [ 1; 2; 1 ] (step [ (3, 1) ]);
  check "same value again" [ 1; 2; 1 ] (step [ (3, 1) ]);
  check "unread variables" [ 1; 2; 1 ] (step [ (8, 1); (9, 2) ]);
  check "first write after a miss" [ 1; 2; 2 ] (step [ (7, 5) ]);
  check "v2 while v0 is even: c only" [ 1; 2; 3 ] (step [ (2, 4) ]);
  check "v0 odd" [ 2; 2; 3 ] (step [ (0, 1) ]);
  check "v2 now read by a and c" [ 3; 2; 4 ] (step [ (2, 5) ]);
  check "pointer moves c to v4" [ 3; 2; 5 ] (step [ (6, 4) ]);
  check "v4 is read by b and c" [ 3; 3; 6 ] (step [ (4, 9) ]);
  Replay.restore r (Replay.snapshot r);
  check "restore invalidates the reader bits" [ 4; 4; 7 ] (step []);
  check "and registers them again" [ 4; 4; 7 ] (step [ (9, 0) ])

type memo_op =
  | Write of int * int * int  (* tid, variable, value *)
  | Commit of int
  | Begin of int
  | End of int
  | Save
  | Restore

let memo_op_gen =
  let open QCheck2.Gen in
  let tid = int_range 1 3 in
  frequency
    [
      (8, map3 (fun t v x -> Write (t, v, x)) tid (int_range 0 9) (int_range 0 3));
      (4, map (fun t -> Commit t) tid);
      (1, map (fun t -> Begin t) tid);
      (1, map (fun t -> End t) tid);
      (1, return Save);
      (1, return Restore);
    ]

let show_memo_op = function
  | Write (t, v, x) -> Printf.sprintf "w%d:v%d=%d" t v x
  | Commit t -> Printf.sprintf "c%d" t
  | Begin t -> Printf.sprintf "b%d" t
  | End t -> Printf.sprintf "e%d" t
  | Save -> "save"
  | Restore -> "restore"

(* After every commit the memoized evaluator must give what a fresh one
   gives on a twin replay fed the same operations. *)
let memo_differential_on ~name make_view =
  qcheck
    (QCheck2.Test.make ~name ~count:300
       ~print:(fun ops -> String.concat " " (List.map show_memo_op ops))
       QCheck2.Gen.(list_size (int_range 0 120) memo_op_gen)
       (fun ops ->
         let view = make_view () in
         let eval = View.make_eval view in
         let r = Replay.create () and twin = Replay.create () in
         let saved = ref None in
         let both f =
           List.iter (fun t -> try f t with Replay.Ill_formed _ -> ()) [ r; twin ]
         in
         List.for_all
           (function
             | Write (tid, v, x) ->
               both (fun t -> Replay.write t tid (var v) (Repr.Int x));
               true
             | Begin tid ->
               both (fun t -> Replay.block_begin t tid);
               true
             | End tid ->
               both (fun t -> Replay.block_end t tid);
               true
             | Save ->
               saved := Some (Replay.snapshot r);
               true
             | Restore ->
               Option.iter (fun snap -> both (fun t -> Replay.restore t snap)) !saved;
               true
             | Commit tid ->
               both (fun t -> Replay.commit t tid);
               Repr.equal (View.recompute eval r) (View.recompute (View.make_eval view) twin))
           ops))

let memo_differential =
  memo_differential_on ~name:"memoized Full views equal fresh recomputes" (fun () ->
      memo_view (Array.make 3 0))

(* Key i holds v<i>, paired with v<i+1> while v<i> is odd: data-dependent
   read sets, and keys that vanish while their variable is unwritten. *)
let keyed_view =
  let project lookup = function
    | Repr.Int i -> (
      match lookup (var i) with
      | Some (Repr.Int x) when x land 1 = 1 ->
        Some (Repr.Pair (Repr.Int x, Option.value ~default:Repr.Unit (lookup (var ((i + 1) mod 10)))))
      | v -> v)
    | _ -> None
  in
  View.Keyed { keys = List.init 10 (fun i -> Repr.Int i); project }

let memo_keyed_differential =
  memo_differential_on ~name:"memoized Full and Keyed views equal fresh recomputes"
    (fun () -> View.Pair (memo_view (Array.make 3 0), keyed_view))

(* --- Timeline --------------------------------------------------------------- *)

(* naive substring test, avoiding a Str dependency *)
let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let test_timeline_layout () =
  let evs =
    [
      Event.Call { tid = 1; mid = "insert"; args = [ Repr.Int 3 ] };
      Event.Call { tid = 2; mid = "lookup"; args = [ Repr.Int 3 ] };
      Event.Commit { tid = 1 };
      Event.Return { tid = 1; mid = "insert"; value = Repr.success };
      Event.Return { tid = 2; mid = "lookup"; value = Repr.Bool true };
    ]
  in
  let rendered = Timeline.render_events evs in
  let lines = String.split_on_char '\n' rendered in
  (* header + separator + 5 event rows + trailing newline *)
  Alcotest.(check int) "row count" 8 (List.length lines);
  (match lines with
  | header :: _ ->
    Alcotest.(check bool) "header names both threads" true
      (contains ~sub:"T1" header && contains ~sub:"T2" header)
  | [] -> Alcotest.fail "empty rendering")

let test_timeline_witness_order () =
  let evs =
    [
      Event.Call { tid = 1; mid = "a"; args = [] };
      Event.Call { tid = 2; mid = "b"; args = [] };
      Event.Commit { tid = 2 };
      (* b commits first *)
      Event.Commit { tid = 1 };
      Event.Return { tid = 2; mid = "b"; value = Repr.Unit };
      Event.Return { tid = 1; mid = "a"; value = Repr.Unit };
    ]
  in
  let w = Timeline.witness (Log.of_events evs) in
  Alcotest.(check bool) "commit order: b is ordinal 1, a is 2" true
    (contains ~sub:"1. T2 b()" w && contains ~sub:"2. T1 a()" w)

let test_timeline_tail_window () =
  let evs = List.init 50 (fun i -> Event.Commit { tid = i mod 3 }) in
  let log = Log.of_events evs in
  let t = Timeline.tail ~window:5 log ~until:40 in
  Alcotest.(check bool) "window label" true (contains ~sub:"events 35..39 of 50" t)

(* --- Squeue / online farm ------------------------------------------------- *)

let test_squeue_fifo () =
  let q = Squeue.create () in
  List.iter (Squeue.push q) [ 1; 2; 3 ];
  let a = Squeue.pop q in
  let b = Squeue.pop q in
  let c = Squeue.pop q in
  Alcotest.(check (list int)) "fifo order" [ 1; 2; 3 ] [ a; b; c ];
  Alcotest.(check int) "empty" 0 (Squeue.length q)

let test_squeue_cross_domain () =
  let q = Squeue.create () in
  let consumer =
    Domain.spawn (fun () ->
        let rec go acc n = if n = 0 then acc else go (acc + Squeue.pop q) (n - 1) in
        go 0 100)
  in
  for i = 1 to 100 do
    Squeue.push q i
  done;
  Alcotest.(check int) "all delivered" 5050 (Domain.join consumer)

let test_online_agrees_with_offline () =
  let open Vyrd_multiset in
  let view = Multiset_vector.viewdef ~capacity:8 in
  for seed = 0 to 4 do
    let log = Log.create ~level:`View () in
    let online =
      Farm.start ~level:`View
        [ Farm.shard ~mode:`View ~view "multiset" Multiset_spec.spec ]
    in
    Farm.attach online log;
    Vyrd_sched.Coop.run ~seed (fun s ->
        let ctx = Instrument.make s log in
        let ms = Multiset_vector.create ~capacity:8 ctx in
        for t = 1 to 3 do
          s.spawn (fun () ->
              let rng = Vyrd_sched.Prng.create (seed + (7 * t)) in
              for _ = 1 to 15 do
                let x = Vyrd_sched.Prng.int rng 5 in
                if Vyrd_sched.Prng.bool rng then ignore (Multiset_vector.insert ms x)
                else ignore (Multiset_vector.delete ms x)
              done)
        done);
    let online_report = (Farm.finish online).Farm.merged in
    let offline_report = Checker.check ~mode:`View ~view log Multiset_spec.spec in
    Alcotest.(check string)
      (Printf.sprintf "same verdict seed %d" seed)
      (Report.tag offline_report) (Report.tag online_report);
    Alcotest.(check int)
      (Printf.sprintf "same events seed %d" seed)
      offline_report.Report.stats.events_processed
      online_report.Report.stats.events_processed
  done

let test_online_reports_violation () =
  (* the online verifier must surface a violation found mid-stream *)
  let log = Log.create ~level:`Io () in
  let online =
    Farm.start ~level:`Io
      [ Farm.shard "multiset" Vyrd_multiset.Multiset_spec.spec ]
  in
  Farm.attach online log;
  Log.append log (Event.Call { tid = 1; mid = "delete"; args = [ Repr.Int 5 ] });
  Log.append log (Event.Commit { tid = 1 });
  Log.append log (Event.Return { tid = 1; mid = "delete"; value = Repr.Bool true });
  let report = (Farm.finish online).Farm.merged in
  Alcotest.(check string) "violation surfaced" "io" (Report.tag report)

let test_subscribe_sees_only_new_events () =
  let log = Log.create ~level:`Io () in
  Log.append log (Event.Commit { tid = 1 });
  let seen = ref 0 in
  Log.subscribe log (fun _ -> incr seen);
  Log.append log (Event.Commit { tid = 2 });
  Alcotest.(check int) "only post-subscription events" 1 !seen

let test_per_method_stats () =
  let log =
    Log.of_events
      [
        Event.Call { tid = 1; mid = "insert"; args = [ Repr.Int 1 ] };
        Event.Commit { tid = 1 };
        Event.Return { tid = 1; mid = "insert"; value = Repr.success };
        Event.Call { tid = 1; mid = "insert"; args = [ Repr.Int 2 ] };
        Event.Commit { tid = 1 };
        Event.Return { tid = 1; mid = "insert"; value = Repr.success };
        Event.Call { tid = 1; mid = "lookup"; args = [ Repr.Int 1 ] };
        Event.Return { tid = 1; mid = "lookup"; value = Repr.Bool true };
      ]
  in
  let report = Checker.check ~mode:`Io log Vyrd_multiset.Multiset_spec.spec in
  Alcotest.(check (list (pair string int)))
    "per-method counts"
    [ ("insert", 2); ("lookup", 1) ]
    report.Report.stats.per_method

let test_view_mode_requires_view () =
  Alcotest.check_raises "missing view definition"
    (Invalid_argument "Checker.create: `View mode requires a view definition")
    (fun () -> ignore (Checker.create ~mode:`View Vyrd_multiset.Multiset_spec.spec))

let test_long_run_state_pruning () =
  (* thousands of commits force the checker's state-window pruning; an
     observer whose window spans the whole run must still be checkable *)
  let insert tid k =
    [
      Event.Call { tid; mid = "insert"; args = [ Repr.Int k ] };
      Event.Commit { tid };
      Event.Return { tid; mid = "insert"; value = Repr.success };
    ]
  in
  let many = List.concat (List.init 3000 (fun i -> insert 1 (i mod 7))) in
  (* plain long run: pruning engages, verdict unaffected *)
  let log = Log.of_events many in
  Alcotest.(check string) "long run passes" "pass"
    (Report.tag (Checker.check ~mode:`Io log Vyrd_multiset.Multiset_spec.spec));
  (* an observer open across the whole run pins the window *)
  let log2 =
    Log.of_events
      ([ Event.Call { tid = 9; mid = "lookup"; args = [ Repr.Int 3 ] } ]
      @ many
      @ [ Event.Return { tid = 9; mid = "lookup"; value = Repr.Bool true } ])
  in
  Alcotest.(check string) "spanning observer passes" "pass"
    (Report.tag (Checker.check ~mode:`Io log2 Vyrd_multiset.Multiset_spec.spec));
  (* and a spanning observer with an impossible return value still fails *)
  let log3 =
    Log.of_events
      ([ Event.Call { tid = 9; mid = "lookup"; args = [ Repr.Int 999 ] } ]
      @ many
      @ [ Event.Return { tid = 9; mid = "lookup"; value = Repr.Bool true } ])
  in
  Alcotest.(check string) "spanning violation found" "observer"
    (Report.tag (Checker.check ~mode:`Io log3 Vyrd_multiset.Multiset_spec.spec))

(* --- checker determinism --------------------------------------------------- *)

let checker_deterministic =
  qcheck
    (QCheck2.Test.make ~name:"checker verdict is a pure function of the log"
       ~count:30
       QCheck2.Gen.(int_range 0 1000)
       (fun seed ->
         let open Vyrd_multiset in
         let log = Log.create ~level:`View () in
         Vyrd_sched.Coop.run ~seed (fun s ->
             let ctx = Instrument.make s log in
             let ms =
               Multiset_vector.create ~bugs:[ Multiset_vector.Racy_find_slot ]
                 ~capacity:8 ctx
             in
             for t = 1 to 3 do
               s.spawn (fun () ->
                   let rng = Vyrd_sched.Prng.create (seed + (13 * t)) in
                   for _ = 1 to 10 do
                     ignore (Multiset_vector.insert_pair ms (Vyrd_sched.Prng.int rng 4)
                               (Vyrd_sched.Prng.int rng 4))
                   done)
             done);
         let view = Multiset_vector.viewdef ~capacity:8 in
         let a = Checker.check ~mode:`View ~view log Multiset_spec.spec in
         let b = Checker.check ~mode:`View ~view log Multiset_spec.spec in
         Report.tag a = Report.tag b
         && a.Report.stats.methods_checked = b.Report.stats.methods_checked))

(* [Repr.equal_since] as the checker uses it: a chain of pairs, each made
   from the last pair that compared equal by rebuilding some [Pair] nodes,
   replacing subtrees with equal copies or with unrelated trees, and
   sometimes changing one side only; a pair that compares unequal is not
   kept, so later pairs are compared after a mismatch against an older
   reference.  Every answer must be [Repr.equal]'s. *)
let repr_equal_since_incremental =
  let open QCheck2.Gen in
  let gen = pair (int_range 0 1_000_000) (int_range 1 40) in
  let rec copy = function
    | Repr.Pair (a, b) -> Repr.Pair (copy a, copy b)
    | Repr.List vs -> Repr.List (List.map copy vs)
    | Repr.Int i -> Repr.Int i
    | Repr.Str s -> Repr.Str (String.init (String.length s) (String.get s))
    | (Repr.Unit | Repr.Bool _) as v -> v
  in
  let rec tree rng depth =
    match Random.State.int rng (if depth = 0 then 3 else 5) with
    | 0 -> Repr.Int (Random.State.int rng 3)
    | 1 -> Repr.Str (if Random.State.bool rng then "a" else "b")
    | 2 -> Repr.Unit
    | 3 -> Repr.List (List.init (Random.State.int rng 3) (fun _ -> tree rng (depth - 1)))
    | _ -> Repr.Pair (tree rng (depth - 1), tree rng (depth - 1))
  in
  (* a pair of equal trees built from the equal pair [(a, b)] *)
  let rec edit rng a b =
    match (Random.State.int rng 5, a, b) with
    | 0, _, _ -> (a, b)
    | 1, _, _ ->
      let t = tree rng 3 in
      (t, copy t)
    | 2, _, _ -> (a, copy b)
    | _, Repr.Pair (a1, a2), Repr.Pair (b1, b2) ->
      let x1, y1 = edit rng a1 b1 in
      let x2, y2 = edit rng a2 b2 in
      (Repr.Pair (x1, x2), Repr.Pair (y1, y2))
    | _ -> (copy a, b)
  in
  (* [t] with one subtree replaced: usually, not always, a different tree *)
  let rec perturb rng t =
    match t with
    | Repr.Pair (a, b) when Random.State.int rng 3 > 0 ->
      if Random.State.bool rng then Repr.Pair (perturb rng a, b) else Repr.Pair (a, perturb rng b)
    | _ -> tree rng 2
  in
  qcheck
    (QCheck2.Test.make ~name:"Repr.equal_since = Repr.equal along a chain of shared pairs"
       ~count:500
       ~print:(fun (seed, steps) -> Printf.sprintf "seed %d, %d steps" seed steps)
       gen
       (fun (seed, steps) ->
         let rng = Random.State.make [| seed |] in
         let t = tree rng 4 in
         let last = ref (t, copy t) in
         let rec go k =
           k = 0
           ||
           let pa, pb = !last in
           let a, b = edit rng pa pb in
           let a, b =
             match Random.State.int rng 4 with
             | 0 -> (perturb rng a, b)
             | 1 -> (a, perturb rng b)
             | _ -> (a, b)
           in
           let want = Repr.equal a b in
           if want then last := (a, b);
           Repr.equal_since pa pb a b = want && go (k - 1)
         in
         go steps))

let suite =
  [
    repr_roundtrip;
    repr_sorted_list_canonical;
    ("repr parse errors", `Quick, test_repr_parse_errors);
    ("repr escapes", `Quick, test_repr_escapes);
    event_roundtrip;
    log_file_roundtrip;
    ("log levels", `Quick, test_log_levels);
    ("log subscription", `Quick, test_log_subscription);
    ("replay plain writes", `Quick, test_replay_plain_writes);
    ("replay block buffers", `Quick, test_replay_block_buffers);
    ("replay block end publishes", `Quick, test_replay_block_end_publishes);
    ("replay ill-formed blocks", `Quick, test_replay_ill_formed);
    ("replay dirty tracking", `Quick, test_replay_dirty_tracking);
    ("keyed view incremental", `Quick, test_keyed_view_incremental);
    ("squeue fifo", `Quick, test_squeue_fifo);
    ("squeue cross-domain", `Quick, test_squeue_cross_domain);
    ("online agrees with offline", `Quick, test_online_agrees_with_offline);
    ("online reports violation", `Quick, test_online_reports_violation);
    ("subscribe sees only new events", `Quick, test_subscribe_sees_only_new_events);
    ("per-method statistics", `Quick, test_per_method_stats);
    ("timeline layout", `Quick, test_timeline_layout);
    ("timeline witness order", `Quick, test_timeline_witness_order);
    ("timeline tail window", `Quick, test_timeline_tail_window);
    ("long-run state pruning", `Quick, test_long_run_state_pruning);
    ("view mode requires a view", `Quick, test_view_mode_requires_view);
    checker_deterministic;
    repr_equal_structural;
    ("memo recomputes stale components only", `Quick, test_memo_recomputes_stale_only);
    memo_differential;
    memo_keyed_differential;
    repr_equal_since_incremental;
  ]
