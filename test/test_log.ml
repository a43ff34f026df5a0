(* Properties of the log layer and its persistence format, plus the
   checker's log-level configuration guard:

   - to_channel/of_channel round trip preserves both the events and the
     recording level, for arbitrary event sequences at arbitrary levels;
   - Log.admits agrees with the records_io/records_writes/records_reads
     fast-path guards that instrumentation uses to skip event construction;
   - `View-mode checking rejects logs recorded below level `View up front
     (the checker.mli footgun) instead of reporting spurious mismatches. *)

open Vyrd
open Vyrd_harness

let qcheck t = QCheck_alcotest.to_alcotest t

(* --- generators ---------------------------------------------------------- *)

let value_gen =
  let open QCheck2.Gen in
  oneof
    [
      return Repr.Unit;
      map (fun b -> Repr.Bool b) bool;
      map (fun i -> Repr.Int i) (int_range (-50) 50);
      map (fun s -> Repr.Str s) (string_size ~gen:printable (int_range 0 8));
    ]

(* every constructor, including the `Full-only ones *)
let event_gen =
  let open QCheck2.Gen in
  let tid = int_range 0 7 in
  let mid = oneofl [ "insert"; "delete"; "lookup"; "flush"; "op" ] in
  let var = oneofl [ "A[0].elt"; "A[1].valid"; "root"; "buf"; "x" ] in
  let lock = oneofl [ "m"; "root_lock"; "entry[2]" ] in
  oneof
    [
      map3 (fun tid mid args -> Event.Call { tid; mid; args }) tid mid
        (list_size (int_range 0 3) value_gen);
      map3 (fun tid mid value -> Event.Return { tid; mid; value }) tid mid value_gen;
      map (fun tid -> Event.Commit { tid }) tid;
      map3 (fun tid var value -> Event.Write { tid; var; value }) tid var value_gen;
      map (fun tid -> Event.Block_begin { tid }) tid;
      map (fun tid -> Event.Block_end { tid }) tid;
      map2 (fun tid var -> Event.Read { tid; var }) tid var;
      map2 (fun tid lock -> Event.Acquire { tid; lock }) tid lock;
      map2 (fun tid lock -> Event.Release { tid; lock }) tid lock;
    ]

let level_gen = QCheck2.Gen.oneofl [ `None; `Io; `View; `Full ]

let pp_level ppf l =
  Fmt.string ppf
    (match l with `None -> "none" | `Io -> "io" | `View -> "view" | `Full -> "full")

(* --- persistence round trip ---------------------------------------------- *)

let roundtrip log =
  let path = Filename.temp_file "vyrd_log" ".log" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Log.to_file path log;
      Log.of_file path)

let roundtrip_preserves_events_and_level =
  qcheck
    (QCheck2.Test.make ~name:"to_channel/of_channel round trip" ~count:150
       QCheck2.Gen.(pair level_gen (list_size (int_range 0 50) event_gen))
       (fun (level, evs) ->
         let log = Log.create ~level () in
         List.iter (Log.append log) evs;
         let log' = roundtrip log in
         let same_level = Log.level log' = Log.level log in
         let same_events =
           List.length (Log.events log') = List.length (Log.events log)
           && List.for_all2 Event.equal (Log.events log') (Log.events log)
         in
         if not (same_level && same_events) then
           QCheck2.Test.fail_reportf "level %a -> %a, %d -> %d events" pp_level
             (Log.level log) pp_level (Log.level log')
             (List.length (Log.events log))
             (List.length (Log.events log'));
         true))

let test_headerless_input_reads_full () =
  (* pre-header serializations carry no level line: they must load at `Full
     so no event is dropped *)
  let path = Filename.temp_file "vyrd_log" ".log" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      List.iter
        (fun ev -> output_string oc (Event.to_line ev ^ "\n"))
        [
          Event.Call { tid = 1; mid = "insert"; args = [ Repr.Int 3 ] };
          Event.Write { tid = 1; var = "x"; value = Repr.Int 3 };
          Event.Commit { tid = 1 };
        ];
      close_out oc;
      let log = Log.of_file path in
      Alcotest.(check bool) "level is `Full" true (Log.level log = `Full);
      Alcotest.(check int) "all events kept" 3 (Log.length log))

let test_empty_log_roundtrip () =
  let log = Log.create ~level:`Io () in
  let log' = roundtrip log in
  Alcotest.(check bool) "level preserved" true (Log.level log' = `Io);
  Alcotest.(check int) "no events" 0 (Log.length log')

(* --- admits vs the fast-path guards -------------------------------------- *)

let admits_agrees_with_guards =
  qcheck
    (QCheck2.Test.make ~name:"admits agrees with records_* guards" ~count:400
       QCheck2.Gen.(pair level_gen event_gen)
       (fun (level, ev) ->
         let log = Log.create ~level () in
         let guard =
           match ev with
           | Event.Call _ | Event.Return _ | Event.Commit _ -> Log.records_io log
           | Event.Write _ | Event.Block_begin _ | Event.Block_end _ ->
             Log.records_writes log
           | Event.Read _ | Event.Acquire _ | Event.Release _ ->
             Log.records_reads log
         in
         Log.admits level ev = guard))

let append_respects_admits =
  qcheck
    (QCheck2.Test.make ~name:"append keeps exactly the admitted events" ~count:150
       QCheck2.Gen.(pair level_gen (list_size (int_range 0 40) event_gen))
       (fun (level, evs) ->
         let log = Log.create ~level () in
         List.iter (Log.append log) evs;
         let expected = List.filter (Log.admits level) evs in
         List.length (Log.events log) = List.length expected
         && List.for_all2 Event.equal (Log.events log) expected))

(* --- the `View-mode configuration guard (checker.mli footgun) ------------ *)

let record_at level =
  let s = Subjects.multiset_vector in
  Harness.run
    { Harness.default with threads = 3; ops_per_thread = 10; log_level = level }
    (s.Subjects.build ~bug:false)

let expect_config_error what f =
  match f () with
  | (_ : Report.t) -> Alcotest.failf "%s: expected Invalid_argument" what
  | exception Invalid_argument _ -> ()

let test_view_check_rejects_io_log () =
  let s = Subjects.multiset_vector in
  let io_log = record_at `Io in
  expect_config_error "check `View on `Io log" (fun () ->
      Checker.check ~mode:`View ~view:s.Subjects.view io_log s.Subjects.spec);
  expect_config_error "check `View on `None log" (fun () ->
      Checker.check ~mode:`View ~view:s.Subjects.view (record_at `None)
        s.Subjects.spec);
  (* the same log is perfectly checkable in the mode it was recorded for *)
  Alcotest.(check bool) "io mode accepts io log" true
    (Report.is_pass (Checker.check ~mode:`Io io_log s.Subjects.spec))

let test_view_check_accepts_view_and_full_logs () =
  let s = Subjects.multiset_vector in
  List.iter
    (fun level ->
      let log = record_at level in
      Alcotest.(check bool)
        (Fmt.str "view mode accepts %a log" pp_level level)
        true
        (Report.is_pass
           (Checker.check ~mode:`View ~view:s.Subjects.view log s.Subjects.spec)))
    [ `View; `Full ]

let test_view_check_rejects_roundtripped_io_log () =
  (* regression for the original footgun scenario: record at `Io, serialize,
     load elsewhere, check in `View mode — must fail fast, not report
     spurious view mismatches *)
  let s = Subjects.multiset_vector in
  let log' = roundtrip (record_at `Io) in
  expect_config_error "check `View on deserialized `Io log" (fun () ->
      Checker.check ~mode:`View ~view:s.Subjects.view log' s.Subjects.spec)

let suite =
  [
    roundtrip_preserves_events_and_level;
    ("headerless input reads at `Full", `Quick, test_headerless_input_reads_full);
    ("empty log round trip", `Quick, test_empty_log_roundtrip);
    admits_agrees_with_guards;
    append_respects_admits;
    ("view mode rejects io-level log", `Quick, test_view_check_rejects_io_log);
    ( "view mode accepts view/full logs",
      `Quick,
      test_view_check_accepts_view_and_full_logs );
    ( "view mode rejects deserialized io log",
      `Quick,
      test_view_check_rejects_roundtripped_io_log );
  ]
