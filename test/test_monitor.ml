(* Temporal-property monitors: differential qcheck of the incremental
   progression engine against the reference whole-trace evaluator,
   agreement of the lock-reversal pack with the static lock-order graph,
   the built-in packs' unit behavior, the spec parser, Explore
   composition, histogram-quantile properties and the negative-observe
   clamp counter, and the vyrdd SIGUSR1 regression (metrics dumps must
   not run inside the signal handler). *)

open Vyrd
module Monitor = Vyrd_monitor.Monitor
module Lockgraph = Vyrd_analysis.Lockgraph
module Metrics = Vyrd_pipeline.Metrics
module Explore = Vyrd_sched.Explore
module Sched = Vyrd_sched.Sched
module Harness = Vyrd_harness.Harness
module Subjects = Vyrd_harness.Subjects
module Wire = Vyrd_net.Wire
module Client = Vyrd_net.Client

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec at i = i + nl <= hl && (String.sub hay i nl = needle || at (i + 1)) in
  at 0

(* --- random formulas and traces ------------------------------------------ *)

(* Atoms are drawn from a fixed table so equal names imply equal
   predicates, as the interface requires. *)
let atom_table =
  [
    ("acquire(a)",
     function Event.Acquire { lock; _ } -> lock = "a" | _ -> false);
    ("release(a)",
     function Event.Release { lock; _ } -> lock = "a" | _ -> false);
    ("call(m)", function Event.Call { mid; _ } -> mid = "m" | _ -> false);
    ("commit", function Event.Commit _ -> true | _ -> false);
    ("any", fun _ -> true);
  ]

let gen_formula =
  let open QCheck.Gen in
  let atom_g =
    oneofl atom_table >|= fun (n, p) -> Monitor.atom n p
  in
  sized_size (int_bound 8)
    (fix (fun self n ->
         if n <= 0 then
           frequency
             [ (3, atom_g); (1, return Monitor.tt); (1, return Monitor.ff) ]
         else
           frequency
             [
               (1, atom_g);
               (2, self (n - 1) >|= Monitor.not_);
               (2, pair (self (n / 2)) (self (n / 2)) >|= fun (a, b) ->
                   Monitor.and_ a b);
               (2, pair (self (n / 2)) (self (n / 2)) >|= fun (a, b) ->
                   Monitor.or_ a b);
               (1, pair (self (n / 2)) (self (n / 2)) >|= fun (a, b) ->
                   Monitor.implies a b);
               (2, self (n - 1) >|= Monitor.next);
               (2, pair (self (n / 2)) (self (n / 2)) >|= fun (a, b) ->
                   Monitor.until a b);
               (2, self (n - 1) >|= Monitor.eventually);
               (2, self (n - 1) >|= Monitor.always);
               (1, pair (int_bound 4) (self (n - 1)) >|= fun (k, g) ->
                   Monitor.within k g);
             ]))

let gen_event =
  QCheck.Gen.oneofl
    [
      Event.Acquire { tid = 1; lock = "a" };
      Event.Release { tid = 1; lock = "a" };
      Event.Call { tid = 1; mid = "m"; args = [] };
      Event.Commit { tid = 2 };
      Event.Call { tid = 2; mid = "n"; args = [] };
    ]

let gen_trace = QCheck.Gen.(list_size (int_bound 12) gen_event)

let formula_trace =
  QCheck.make
    ~print:(fun (f, evs) ->
      Fmt.str "%a over [%a]" Monitor.pp_f f
        Fmt.(list ~sep:semi Event.pp)
        evs)
    QCheck.Gen.(pair gen_formula gen_trace)

(* The core differential property: feeding the whole trace through the
   progression engine and resolving at stream end agrees with the classic
   recursive LTLf evaluator. *)
let prop_incremental_matches_reference =
  QCheck.Test.make ~count:2000
    ~name:"incremental verdict = whole-trace reference eval" formula_trace
    (fun (f, evs) ->
      let trace = Array.of_list evs in
      let m = Monitor.of_formula ~name:"p" f in
      Array.iter (Monitor.feed m) trace;
      let expected = Monitor.eval f trace in
      match Monitor.finish m with
      | Monitor.Sat -> expected
      | Monitor.Viol _ -> not expected
      | Monitor.Pending -> false)

(* Early verdicts are sticky: once the stream makes the formula
   unavoidable (either way), extensions cannot flip it. *)
let prop_verdict_sticky =
  QCheck.Test.make ~count:1000 ~name:"mid-stream verdicts are final"
    formula_trace (fun (f, evs) ->
      let m = Monitor.of_formula ~name:"p" f in
      let first = ref None in
      List.iter
        (fun ev ->
          Monitor.feed m ev;
          if !first = None then
            match Monitor.verdict m with
            | Monitor.Pending -> ()
            | v -> first := Some v)
        evs;
      let final = Monitor.finish m in
      match (!first, final) with
      | None, _ -> true
      | Some (Monitor.Viol _), Monitor.Viol _ -> true
      | Some Monitor.Sat, Monitor.Sat -> true
      | Some _, _ -> false)

let prop_witness_in_range =
  QCheck.Test.make ~count:1000 ~name:"violation witness index is in range"
    formula_trace (fun (f, evs) ->
      let m = Monitor.of_formula ~name:"p" f in
      List.iter (Monitor.feed m) evs;
      match Monitor.finish m with
      | Monitor.Viol w -> w.Monitor.at >= 0 && w.Monitor.at <= List.length evs
      | Monitor.Sat | Monitor.Pending -> true)

(* --- lock-reversal pack vs the static lock-order graph ------------------- *)

(* Single-pair traces: every thread performs well-nested sessions over the
   pair {a,b}, optionally wrapped in a shared gate lock held outermost.
   On this family the only possible cycle is the 2-cycle a<->b, which both
   analyses judge with the same distinct-thread and gate-lock
   suppressions, so their verdicts must coincide exactly. *)
let gen_session =
  QCheck.Gen.(
    triple (int_range 1 3) bool bool >|= fun (tid, gated, a_first) ->
    let x = if a_first then "a" else "b" in
    let y = if a_first then "b" else "a" in
    (if gated then [ Event.Acquire { tid; lock = "g" } ] else [])
    @ [
        Event.Acquire { tid; lock = x };
        Event.Acquire { tid; lock = y };
        Event.Release { tid; lock = y };
        Event.Release { tid; lock = x };
      ]
    @ if gated then [ Event.Release { tid; lock = "g" } ] else [])

let gen_pair_trace =
  QCheck.Gen.(list_size (int_bound 8) gen_session >|= List.concat)

let prop_lock_reversal_matches_lockgraph =
  QCheck.Test.make ~count:500
    ~name:"lock-reversal monitor = lockgraph on single-pair traces"
    (QCheck.make
       ~print:(fun evs -> Fmt.str "[%a]" Fmt.(list ~sep:semi Event.pp) evs)
       gen_pair_trace)
    (fun evs ->
      let m = Monitor.lock_reversal () in
      List.iter (Monitor.feed m) evs;
      let monitor_convicts =
        match Monitor.finish m with
        | Monitor.Viol _ -> true
        | Monitor.Sat | Monitor.Pending -> false
      in
      let graph_convicts =
        not (Lockgraph.ok (Lockgraph.analyze (Log.of_events evs)))
      in
      monitor_convicts = graph_convicts)

(* --- built-in pack unit behavior ----------------------------------------- *)

let reversal_trace =
  [
    Event.Acquire { tid = 1; lock = "a" };
    Event.Acquire { tid = 1; lock = "b" };
    Event.Release { tid = 1; lock = "b" };
    Event.Release { tid = 1; lock = "a" };
    Event.Acquire { tid = 2; lock = "b" };
    Event.Acquire { tid = 2; lock = "a" };
    (* <- convicted here, index 5 *)
    Event.Release { tid = 2; lock = "a" };
    Event.Release { tid = 2; lock = "b" };
  ]

let test_lock_reversal_convicts () =
  let m = Monitor.lock_reversal () in
  List.iteri
    (fun i ev ->
      Monitor.feed m ev;
      if i < 5 then
        match Monitor.verdict m with
        | Monitor.Viol _ -> Alcotest.fail "convicted before the reversal"
        | _ -> ())
    reversal_trace;
  match Monitor.finish m with
  | Monitor.Viol w ->
    Alcotest.(check int) "witness at the reversing acquire" 5 w.Monitor.at;
    Alcotest.(check (option int)) "witness thread" (Some 2) w.Monitor.tid
  | Monitor.Sat | Monitor.Pending ->
    Alcotest.fail "reversal not convicted"

let test_lock_reversal_gate_suppressed () =
  let gate tid body =
    (Event.Acquire { tid; lock = "g" } :: body)
    @ [ Event.Release { tid; lock = "g" } ]
  in
  let m = Monitor.lock_reversal () in
  List.iter (Monitor.feed m)
    (gate 1
       [
         Event.Acquire { tid = 1; lock = "a" };
         Event.Acquire { tid = 1; lock = "b" };
         Event.Release { tid = 1; lock = "b" };
         Event.Release { tid = 1; lock = "a" };
       ]
    @ gate 2
        [
          Event.Acquire { tid = 2; lock = "b" };
          Event.Acquire { tid = 2; lock = "a" };
          Event.Release { tid = 2; lock = "a" };
          Event.Release { tid = 2; lock = "b" };
        ]);
  match Monitor.finish m with
  | Monitor.Viol _ -> Alcotest.fail "gated reversal must be suppressed"
  | Monitor.Sat | Monitor.Pending -> ()

let test_lock_reversal_single_thread_suppressed () =
  let m = Monitor.lock_reversal () in
  List.iter (Monitor.feed m)
    (List.map
       (function
         | Event.Acquire a -> Event.Acquire { a with tid = 1 }
         | Event.Release r -> Event.Release { r with tid = 1 }
         | ev -> ev)
       reversal_trace);
  match Monitor.finish m with
  | Monitor.Viol _ ->
    Alcotest.fail "one thread cannot deadlock with itself (reentrant)"
  | Monitor.Sat | Monitor.Pending -> ()

(* Three threads reverse three lock pairs around a gate lock [g], with a
   reentrant acquire and non-lock events in the stream.  The pins fix each
   witness's stream index, thread and held sets, the latter in first-
   acquisition order (the reentrant [a] stays behind [b]). *)
let test_lock_reversal_witness_pinned () =
  let acq tid lock = Event.Acquire { tid; lock }
  and rel tid lock = Event.Release { tid; lock } in
  let m = Monitor.lock_reversal () in
  List.iter (Monitor.feed m)
    [
      Event.Call { tid = 1; mid = "m"; args = [] };
      acq 1 "a"; acq 1 "b"; acq 1 "a"; acq 1 "c";
      rel 1 "c"; rel 1 "a"; rel 1 "b"; rel 1 "a";
      acq 3 "g"; acq 3 "b"; acq 3 "a";
      rel 3 "a"; rel 3 "b"; rel 3 "g";
      Event.Write { tid = 2; var = "x"; value = Repr.Int 1 };
      acq 2 "c"; acq 2 "a"; rel 2 "a"; rel 2 "c";
      acq 4 "g"; acq 4 "c"; acq 4 "b"; rel 4 "b"; rel 4 "c"; rel 4 "g";
    ];
  let pinned =
    [
      ( 11, Some 3,
        Some "T1 acquired b @2 holding {a}; T3 acquired a @11 holding {b, g}" );
      ( 17, Some 2,
        Some "T1 acquired c @4 holding {b, a}; T2 acquired a @17 holding {c}" );
      ( 22, Some 4,
        Some "T1 acquired c @4 holding {b, a}; T4 acquired b @22 holding {c, g}"
      );
    ]
  in
  let got =
    List.map
      (fun (w : Monitor.witness) -> (w.at, w.tid, w.detail))
      (Monitor.violations m)
  in
  Alcotest.(check (list (triple int (option int) (option string))))
    "violations" pinned got;
  match Monitor.finish m with
  | Monitor.Viol w -> Alcotest.(check int) "first violation" 11 w.Monitor.at
  | Monitor.Sat | Monitor.Pending -> Alcotest.fail "reversals not convicted"

let test_resource_leak_convicts_at_end () =
  let m = Monitor.resource_leak () in
  List.iter (Monitor.feed m)
    [
      Event.Acquire { tid = 1; lock = "a" };
      Event.Acquire { tid = 1; lock = "b" };
      Event.Release { tid = 1; lock = "b" };
      (* "a" never released *)
      Event.Commit { tid = 1 };
    ];
  (match Monitor.verdict m with
  | Monitor.Viol _ -> Alcotest.fail "leak is only decidable at stream end"
  | _ -> ());
  match Monitor.finish m with
  | Monitor.Viol w ->
    Alcotest.(check int) "anchored at the unmatched acquire" 0 w.Monitor.at;
    Alcotest.(check (option int)) "holder thread" (Some 1) w.Monitor.tid;
    (match w.Monitor.detail with
    | Some d ->
      Alcotest.(check bool) "detail names the still-held lock" true
        (contains d "a")
    | None -> Alcotest.fail "leak witness carries the still-held set")
  | Monitor.Sat | Monitor.Pending -> Alcotest.fail "leak not convicted"

let test_resource_leak_reentrant_clean () =
  let m = Monitor.resource_leak () in
  List.iter (Monitor.feed m)
    [
      Event.Acquire { tid = 1; lock = "a" };
      Event.Acquire { tid = 1; lock = "a" };
      Event.Release { tid = 1; lock = "a" };
      Event.Release { tid = 1; lock = "a" };
    ];
  match Monitor.finish m with
  | Monitor.Viol _ -> Alcotest.fail "balanced reentrant acquires are clean"
  | Monitor.Sat | Monitor.Pending -> ()

(* --- spec parser ---------------------------------------------------------- *)

let test_parse_ok () =
  List.iter
    (fun s ->
      match Monitor.parse s with
      | Ok _ -> ()
      | Error msg -> Alcotest.fail (Printf.sprintf "%S: %s" s msg))
    [
      "G (call(Insert) -> F return(Insert))";
      "always (acquire(m) -> eventually release(m))";
      "! (true U false) | commit & any";
      "X (within 3 write(top))";
      "G (read(size) -> ! X release(l))";
    ]

let test_parse_err () =
  List.iter
    (fun s ->
      match Monitor.parse s with
      | Ok _ -> Alcotest.fail (Printf.sprintf "%S must not parse" s)
      | Error _ -> ())
    [ ""; "G ((("; "call()"; "within x any"; "true U" ]

let test_parse_semantics () =
  (* the parsed formula means what the combinators mean *)
  let f =
    match Monitor.parse "G (call(m) -> F return(m))" with
    | Ok f -> f
    | Error msg -> Alcotest.fail msg
  in
  let call = Event.Call { tid = 1; mid = "m"; args = [] } in
  let ret = Event.Return { tid = 1; mid = "m"; value = Repr.unit } in
  Alcotest.(check bool) "answered call satisfies" true
    (Monitor.eval f [| call; ret |]);
  Alcotest.(check bool) "unanswered call violates" false
    (Monitor.eval f [| call |]);
  Alcotest.(check bool) "empty trace satisfies an always" true
    (Monitor.eval f [||])

let test_of_spec () =
  (match Monitor.of_spec "lock-reversal" with
  | Ok m ->
    Alcotest.(check string) "builtin resolves" "lock-reversal"
      (Monitor.name m)
  | Error msg -> Alcotest.fail msg);
  (match Monitor.of_spec "G commit" with
  | Ok _ -> ()
  | Error msg -> Alcotest.fail msg);
  match Monitor.of_spec "no-such-pack(" with
  | Ok _ -> Alcotest.fail "garbage spec resolved"
  | Error _ -> ()

(* --- Explore composition -------------------------------------------------- *)

(* Two threads acquiring {a,b} in opposite orders: some schedules deadlock,
   some complete — a completed trace carries both orders on distinct
   threads with no gate, so the lock-reversal monitor must convict one,
   and the returned decision script must replay to a convicting run. *)
let opposite_order_scenario () =
  let log = Log.create ~level:`Full () in
  let finished = ref 0 in
  let main (sched : Sched.t) =
    let ctx = Instrument.make sched log in
    let a = Instrument.mutex ctx ~name:"a" in
    let b = Instrument.mutex ctx ~name:"b" in
    let locked (m1 : Sched.mutex) (m2 : Sched.mutex) () =
      m1.Sched.lock ();
      m2.Sched.lock ();
      m2.Sched.unlock ();
      m1.Sched.unlock ();
      incr finished
    in
    sched.Sched.spawn (locked a b);
    sched.Sched.spawn (locked b a)
  in
  (main, fun () -> if !finished = 2 then Some log else None)

let test_first_violation () =
  let outcome =
    Monitor.first_violation ~max_schedules:2_000
      ~monitors:(fun () -> [ Monitor.lock_reversal () ])
      opposite_order_scenario
  in
  (match outcome.Monitor.violation with
  | Some (name, w) ->
    Alcotest.(check string) "the reversal monitor convicted" "lock-reversal"
      name;
    Alcotest.(check bool) "witness index in the trace" true (w.Monitor.at > 0)
  | None -> Alcotest.fail "no violating schedule found");
  match outcome.Monitor.schedule with
  | None -> Alcotest.fail "violation carries no schedule certificate"
  | Some script ->
    (* the certificate replays deterministically to a convicting trace *)
    let main, log_of = opposite_order_scenario () in
    Explore.replay script main;
    (match log_of () with
    | None -> Alcotest.fail "replayed schedule did not complete"
    | Some log ->
      let m = Monitor.lock_reversal () in
      Log.iter (Monitor.feed m) log;
      (match Monitor.finish m with
      | Monitor.Viol _ -> ()
      | Monitor.Sat | Monitor.Pending ->
        Alcotest.fail "replayed schedule is not a violation witness"))

(* --- histogram quantiles (qcheck) ---------------------------------------- *)

let observations =
  QCheck.Gen.(list_size (int_range 1 64) (int_bound 100_000))

let hist_of vs =
  let m = Metrics.create () in
  let h = Metrics.histogram m "lat" in
  List.iter (Metrics.observe h) vs;
  (m, h)

let prop_quantile_le_max =
  QCheck.Test.make ~count:500 ~name:"quantile <= hist_max"
    (QCheck.make
       ~print:QCheck.Print.(pair (list int) float)
       QCheck.Gen.(pair observations (float_bound_inclusive 1.)))
    (fun (vs, q) ->
      let _, h = hist_of vs in
      Metrics.quantile h q <= Metrics.hist_max h)

let prop_quantile_monotone =
  QCheck.Test.make ~count:500 ~name:"quantile monotone in q"
    (QCheck.make
       ~print:QCheck.Print.(triple (list int) float float)
       QCheck.Gen.(
         triple observations (float_bound_inclusive 1.)
           (float_bound_inclusive 1.)))
    (fun (vs, q1, q2) ->
      let lo = Float.min q1 q2 and hi = Float.max q1 q2 in
      let _, h = hist_of vs in
      Metrics.quantile h lo <= Metrics.quantile h hi)

let prop_quantile_merge_bounded =
  QCheck.Test.make ~count:500
    ~name:"merged quantile <= max of inputs' maxima"
    (QCheck.make
       ~print:QCheck.Print.(triple (list int) (list int) float)
       QCheck.Gen.(
         triple observations observations (float_bound_inclusive 1.)))
    (fun (va, vb, q) ->
      let ma, ha = hist_of va in
      let mb, hb = hist_of vb in
      let bound = max (Metrics.hist_max ha) (Metrics.hist_max hb) in
      Metrics.merge ~into:ma mb;
      Metrics.quantile ha q <= bound)

(* --- negative-observe clamp counter -------------------------------------- *)

let test_observe_clamp_counted () =
  let m = Metrics.create () in
  let h = Metrics.histogram m "lat" in
  Metrics.observe h 5;
  Metrics.observe h (-3);
  Metrics.observe h (-1);
  Alcotest.(check int) "clamped observations counted" 2
    (Metrics.value (Metrics.counter m "lat.clamped"));
  Alcotest.(check int) "clamped values recorded as 0" 3 (Metrics.hist_count h);
  let json = Metrics.to_json m in
  Alcotest.(check bool) "clamp counter surfaces in JSON" true
    (contains json "lat.clamped");
  Alcotest.(check bool) "clamp counter surfaces in pp" true
    (contains (Fmt.str "%a" Metrics.pp m) "lat.clamped")

let test_observe_clamp_hidden_when_zero () =
  let m = Metrics.create () in
  let h = Metrics.histogram m "lat" in
  Metrics.observe h 5;
  Metrics.observe h 7;
  let json = Metrics.to_json m in
  Alcotest.(check bool) "no spurious clamp counter in JSON" false
    (contains json ".clamped");
  Alcotest.(check bool) "no spurious clamp counter in pp" false
    (contains (Fmt.str "%a" Metrics.pp m) ".clamped")

(* --- vyrdd SIGUSR1 regression --------------------------------------------- *)

(* The daemon's SIGUSR1 handler used to print the metrics registry from
   inside the handler; [Metrics.pp] takes the registry mutex, so a signal
   landing while any thread held it could deadlock the process.  The
   handler now only sets a flag and the main loop dumps.  Regression:
   storm the daemon with SIGUSR1 while it serves and while it drains, and
   require a clean exit with at least one dump in the output.  [serve] and
   [cluster] share the main loop; both are stormed. *)
let sigusr1_storm args () =
  let exe =
    List.find Sys.file_exists
      [ "../bin/vyrd_check.exe"; "_build/default/bin/vyrd_check.exe" ]
  in
  let sock = Filename.temp_file "vyrd_usr1" ".sock" in
  Sys.remove sock;
  let spool = Filename.temp_file "vyrd_usr1" ".spool" in
  Sys.remove spool;
  let out_path = Filename.temp_file "vyrd_usr1" ".out" in
  let out_fd = Unix.openfile out_path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let pid =
    Unix.create_process exe
      (Array.of_list
         ((exe :: args ~spool)
         @ [ "--listen"; sock; "--subjects"; "Multiset-Vector" ]))
      Unix.stdin out_fd out_fd
  in
  Unix.close out_fd;
  Fun.protect
    ~finally:(fun () ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      (try ignore (Unix.waitpid [ Unix.WNOHANG ] pid)
       with Unix.Unix_error _ -> ());
      (try Sys.remove out_path with Sys_error _ -> ());
      if Sys.file_exists spool then begin
        Array.iter
          (fun f -> Sys.remove (Filename.concat spool f))
          (Sys.readdir spool);
        Sys.rmdir spool
      end;
      if Sys.file_exists sock then Sys.remove sock)
    (fun () ->
      let log =
        Harness.run
          { Harness.default with threads = 2; ops_per_thread = 10 }
          ((Subjects.find "Multiset-Vector").Subjects.build ~bug:false)
      in
      (* the retrying connect doubles as the wait for the daemon to be up *)
      (match
         Client.submit_log ~retries:20 ~backoff:0.05 (Wire.Unix_socket sock)
           log
       with
      | Client.Checked _ -> ()
      | Client.Spilled _ -> Alcotest.fail "unloaded daemon spilled");
      (* storm while serving: every dump must come from the main loop *)
      for _ = 1 to 10 do
        Unix.kill pid Sys.sigusr1;
        Thread.delay 0.02
      done;
      (match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ -> ()
      | _, _ -> Alcotest.fail "daemon died under SIGUSR1");
      Unix.kill pid Sys.sigterm;
      (* keep storming during the drain *)
      let deadline = Unix.gettimeofday () +. 10. in
      let rec await () =
        (try Unix.kill pid Sys.sigusr1 with Unix.Unix_error _ -> ());
        match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ ->
          if Unix.gettimeofday () > deadline then
            Alcotest.fail "daemon hung draining under SIGUSR1"
          else begin
            Thread.delay 0.02;
            await ()
          end
        | _, status -> status
      in
      (match await () with
      | Unix.WEXITED 0 -> ()
      | Unix.WEXITED n ->
        Alcotest.fail (Printf.sprintf "daemon exited %d under SIGUSR1" n)
      | Unix.WSIGNALED s ->
        Alcotest.fail (Printf.sprintf "daemon died of signal %d" s)
      | Unix.WSTOPPED _ -> Alcotest.fail "daemon stopped instead of exiting");
      let ic = open_in out_path in
      let text =
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      Alcotest.(check bool) "at least one metrics dump happened" true
        (contains text "counters"))

let suite =
  [
    QCheck_alcotest.to_alcotest prop_incremental_matches_reference;
    QCheck_alcotest.to_alcotest prop_verdict_sticky;
    QCheck_alcotest.to_alcotest prop_witness_in_range;
    QCheck_alcotest.to_alcotest prop_lock_reversal_matches_lockgraph;
    ("lock-reversal convicts with witness", `Quick, test_lock_reversal_convicts);
    ("gate lock suppresses the reversal", `Quick,
     test_lock_reversal_gate_suppressed);
    ("single thread suppresses the reversal", `Quick,
     test_lock_reversal_single_thread_suppressed);
    ("lock-reversal witnesses pinned on three locks", `Quick,
     test_lock_reversal_witness_pinned);
    ("resource leak convicts at stream end", `Quick,
     test_resource_leak_convicts_at_end);
    ("balanced reentrant acquires are clean", `Quick,
     test_resource_leak_reentrant_clean);
    ("formula syntax parses", `Quick, test_parse_ok);
    ("malformed specs are rejected", `Quick, test_parse_err);
    ("parsed formulas mean the combinators", `Quick, test_parse_semantics);
    ("of_spec resolves builtins and formulas", `Quick, test_of_spec);
    ("first_violation finds a replayable schedule", `Quick,
     test_first_violation);
    QCheck_alcotest.to_alcotest prop_quantile_le_max;
    QCheck_alcotest.to_alcotest prop_quantile_monotone;
    QCheck_alcotest.to_alcotest prop_quantile_merge_bounded;
    ("negative observe counts a clamp", `Quick, test_observe_clamp_counted);
    ("clamp counter hidden when zero", `Quick,
     test_observe_clamp_hidden_when_zero);
    ("SIGUSR1 storm during serve and drain", `Quick,
     sigusr1_storm (fun ~spool:_ -> [ "serve"; "--monitor"; "lock-reversal" ]));
    ("SIGUSR1 storm during cluster and drain", `Quick,
     sigusr1_storm (fun ~spool ->
         [ "cluster"; "--workers"; "1"; "--spool-dir"; spool ]));
  ]
