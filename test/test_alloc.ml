(* Allocation census: minor words and direct major-heap words per event of
   each stage on the feeding path (per step for the Coop scheduler), over
   fixed golden composite logs (the §7.1 program over the multiset-vector,
   vector and string-buffer subjects, 4 threads × 300 operations, seeds
   1–3).  Wall-clock time on a shared host drifts by a third; a count of
   allocated words does not, so each stage is gated on two budgets.  The
   GC counters count the calling domain only: a farm's figure is the
   feeding thread's share, not its lanes'.

   Each budget is the figure measured on OCaml 5.1.1 plus a slack for the
   other 5.x runtimes and stdlibs, written next to it.  A change that cuts a
   stage's allocation lowers its budget; one that raises a budget says why.
   The frame readers' budgets live in the [frames] suite. *)

open Vyrd
open Vyrd_pipeline
open Vyrd_net
module Coop = Vyrd_sched.Coop
module Harness = Vyrd_harness.Harness
module Workload = Vyrd_harness.Workload
module Pass = Vyrd_analysis.Pass

let spec, view = Workload.product (Workload.v Workload.composite)

(* [Test_frames.composite_log]'s program, long enough that a farm's
   start-up allocation is noise next to its per-event share. *)
let composite_log level seed =
  Log.snapshot
    (Workload.log
       (Workload.v Workload.composite
          ~config:{ Harness.threads = 4; ops_per_thread = 300; key_pool = 8; key_range = 16;
                    seed; log_level = level }))

let logs level = List.map (composite_log level) [ 1; 2; 3 ]
let io_logs = lazy (logs `Io)
let view_logs = lazy (logs `View)

(* What a stage allocates per unit: minor words, and words allocated
   directly in the major heap ([major_words - promoted_words]) — blocks over
   256 words, such as a fresh I/O buffer, bypass the minor heap, so
   [Gc.minor_words] never sees them. *)
type figures = { minor : float; direct_major : float }

(* One warm-up run, so intern tables, reused buffers and pool domains are
   in place, then the counted run: words per unit of [count ()], read
   after it. *)
let words_per count run =
  run ();
  (* [Gc.counters]' minor figure lags until the next minor collection, so
     the minor words come from [Gc.minor_words] *)
  let minor0 = Gc.minor_words () and _, promoted0, major0 = Gc.counters () in
  run ();
  let minor1 = Gc.minor_words () and _, promoted1, major1 = Gc.counters () in
  let per w = w /. float_of_int (count ()) in
  { minor = per (minor1 -. minor0);
    direct_major = per (major1 -. major0 -. (promoted1 -. promoted0)) }

let events logs = List.fold_left (fun n evs -> n + Array.length evs) 0 logs

(* [f] over every log, per event. *)
let words_per_event logs f = words_per (fun () -> events logs) (fun () -> List.iter f logs)

(* --- stages ----------------------------------------------------------- *)

let log_append level evs =
  let log = Log.create ~level () in
  let seen = ref 0 in
  let listener _ = incr seen in
  Log.subscribe log listener;
  Array.iter (Log.append log) evs

let checker_feed mode ?view evs =
  let c = Checker.create ~mode ?view spec in
  Array.iter (fun ev -> ignore (Checker.feed c ev : Report.violation option)) evs

let farm_run ~level ?(passes = fun () -> []) shard evs =
  let farm = Farm.start ~level ~passes:(passes ()) [ shard ] in
  Array.iter (Farm.feed farm) evs;
  ignore (Farm.finish farm : Farm.result)

let io_shard = Farm.shard ~mode:`Io "composite" spec
let view_shard = Farm.shard ~mode:`View ~view "composite" spec

(* Encode into one reused writer, cleared every 256 events (a wire batch). *)
let encode_batches w evs =
  Array.iteri
    (fun i ev ->
      if i mod 256 = 0 then Bincodec.clear w;
      Bincodec.put_event w ev)
    evs

let encoded evs =
  let w = Bincodec.writer () in
  List.map
    (fun batch ->
      Bincodec.clear w;
      Array.iter (Bincodec.put_event w) batch;
      Bincodec.contents w)
    (Test_frames.chunks evs)

let decode_batches c payloads =
  List.iter
    (fun s ->
      Bincodec.retarget c ~len:(String.length s) s;
      ignore (Bincodec.iter_events c ignore : int))
    payloads

(* [Wire.write_batch] of each 256-event batch into one end of a socketpair;
   the other end is drained after each frame, so no write can block. *)
let wire_write w a b sink evs =
  let n = Array.length evs in
  let pos = ref 0 in
  while !pos < n do
    let len = min 256 (n - !pos) in
    let size = Wire.write_batch w a evs ~pos:!pos ~len in
    let got = ref 0 in
    while !got < size do
      got := !got + Unix.read b sink 0 (min (Bytes.length sink) (size - !got))
    done;
    pos := !pos + len
  done

(* --- budgets ---------------------------------------------------------- *)

let bincodec_decode () =
  let payloads = List.concat_map encoded (Lazy.force io_logs) in
  let c = Bincodec.cursor "" in
  words_per (fun () -> events (Lazy.force io_logs)) (fun () -> decode_batches c payloads)

let wire_write_batch () =
  let a, b = Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> Unix.close a; Unix.close b) @@ fun () ->
  let w = Bincodec.writer () in
  let sink = Bytes.create 65536 in
  words_per_event (Lazy.force io_logs) (wire_write w a b sink)

(* Four fibers yielding in turn: minor words per scheduler step. *)
let coop_yield () =
  let steps = ref 0 in
  let run () =
    let stats =
      Coop.run_with_stats ~seed:1 (fun s ->
          for _ = 1 to 4 do
            s.spawn (fun () ->
                for _ = 1 to 5_000 do
                  s.yield ()
                done)
          done)
    in
    steps := stats.Coop.steps
  in
  words_per (fun () -> !steps) run

(* Four fibers taking one instrumented mutex in turn at [`View]: minor
   words per lock plus unlock, the scheduling points included. *)
let instrumented_lock () =
  let fibers = 4 and rounds = 2_000 in
  let run () =
    Coop.run ~seed:1 (fun s ->
        let m = Instrument.mutex (Instrument.make s (Log.create ~level:`View ())) ~name:"m" in
        for _ = 1 to fibers do
          s.spawn (fun () ->
              for _ = 1 to rounds do
                m.lock ();
                m.unlock ()
              done)
        done)
  in
  words_per (fun () -> fibers * rounds) run

(* Stage, minor-heap figure measured on OCaml 5.1.1 and its slack, direct
   major-heap figure and its slack, and the measurement, per event (per
   scheduler step for the Coop yield).  The three farm figures were 7.33,
   6.10 and 11.26 before the ring stopped boxing its slots, the analysis
   lane shared each event's box and a thread's routing entry was reused
   across calls; the checker's were 25.3 (io) and 43.8 (view) before one
   record carried an execution from call to verdict and the Vector
   specification's states became arrays, and view mode's 37.71 before view
   components kept lookup trails, the StringBuffer view became [Keyed] and
   the Multiset-Vector view and the specification views stopped building
   a [Hashtbl] or sorting; Bincodec decode's was 14.8 before decoded
   integers came from [Repr.int]'s shared table. *)
let budgets =
  [ ("Log.append, one listener, io", (0.19, 0.5), (2.56, 0.5),
     lazy (words_per_event (Lazy.force io_logs) (log_append `Io)));
    ("Log.append, one listener, view", (0.09, 0.5), (2.43, 0.5),
     lazy (words_per_event (Lazy.force view_logs) (log_append `View)));
    ("Checker.feed, io mode", (12.14, 3.0), (0.0, 0.5),
     lazy (words_per_event (Lazy.force io_logs) (checker_feed `Io)));
    ("Checker.feed, view mode", (23.37, 6.0), (0.0, 0.5),
     lazy (words_per_event (Lazy.force view_logs) (checker_feed `View ~view)));
    ("Farm.start + feed + finish, io", (3.59, 1.5), (1.36, 0.5),
     lazy (words_per_event (Lazy.force io_logs) (farm_run ~level:`Io io_shard)));
    ("Farm.start + feed + finish, view", (3.32, 1.5), (0.63, 0.5),
     lazy (words_per_event (Lazy.force view_logs) (farm_run ~level:`View view_shard)));
    ("Farm.start + feed + finish, view with passes", (3.47, 1.5), (1.25, 0.5),
     lazy
       (words_per_event (Lazy.force view_logs)
          (farm_run ~level:`View ~passes:(fun () -> Pass.for_level `View) view_shard)));
    ("Bincodec encode", (0.0, 0.5), (0.0, 0.5),
     lazy (words_per_event (Lazy.force io_logs) (encode_batches (Bincodec.writer ()))));
    ("Bincodec decode", (13.64, 3.5), (0.0, 0.5), lazy (bincodec_decode ()));
    ("Wire.write_batch to a socketpair", (0.03, 0.5), (0.0, 0.5), lazy (wire_write_batch ()));
    ("Coop yield step, 4 fibers", (5.21, 1.5), (0.0, 0.5), lazy (coop_yield ())) ]

(* Stages added since, per the same columns; their two tests follow all of
   [budgets]' so every earlier test keeps its place in the suite.  The
   instrumented lock's figure (per lock plus unlock) was 13.20 while
   [Instrument.mutex] built its lock events at every level. *)
let later_budgets =
  [ ("Coop lock + unlock via Instrument.mutex, view", (7.19, 1.5), (0.0, 0.5),
     lazy (instrumented_lock ())) ]

let within what ~heap (measured, slack) words =
  Alcotest.(check bool)
    (Printf.sprintf "%s: %.2f %s words each, within %.2f + %.2f" what words heap measured
       slack)
    true
    (words <= measured +. slack)

(* Each stage is measured once: its minor-heap budget is checked where the
   suite always checked it, its direct major-heap budget after all of its
   list's minor-heap budgets. *)
let tests budgets =
  List.map
    (fun (what, minor, _, figures) ->
      Alcotest.test_case (what ^ " allocation budget") `Quick (fun () ->
          within what ~heap:"minor" minor (Lazy.force figures).minor))
    budgets
  @ List.map
      (fun (what, _, major, figures) ->
        Alcotest.test_case (what ^ " direct major-heap budget") `Quick (fun () ->
            within what ~heap:"direct major" major (Lazy.force figures).direct_major))
      budgets

let suite = tests budgets @ tests later_budgets
