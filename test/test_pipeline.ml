(* The streaming pipeline: binary codec round trips (including the int
   extremes the zigzag mapping must survive), segment-file crash recovery
   (every CRC-valid prefix segment's events are preserved), equivalence of
   the binary and textual formats on the checked-in example logs, the
   bounded ring's ordering/backpressure/close semantics, and the checker
   farm agreeing with the offline composed-spec checker on both correct and
   buggy executions. *)

open Vyrd
open Vyrd_harness
open Vyrd_pipeline
module Prng = Vyrd_sched.Prng

let qcheck t = QCheck_alcotest.to_alcotest t

let is_infix ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  n = 0 || go 0

(* --- codec round trips --------------------------------------------------- *)

let decode_all s =
  let c = Bincodec.cursor s in
  let rec go acc = if Bincodec.remaining c = 0 then List.rev acc else go (Bincodec.read_event c :: acc) in
  go []

let varint_roundtrip =
  qcheck
    (QCheck2.Test.make ~name:"varint round trip" ~count:500
       QCheck2.Gen.(
         oneof
           [ int; int_range (-200) 200;
             oneofl [ min_int; max_int; min_int + 1; max_int - 1; 0; -1; 1 ] ])
       (fun n ->
         let b = Bincodec.writer () in
         Bincodec.put_varint b n;
         let c = Bincodec.cursor (Bincodec.contents b) in
         Bincodec.read_varint c = n && Bincodec.remaining c = 0))

let test_varint_extremes () =
  List.iter
    (fun n ->
      let b = Bincodec.writer () in
      Bincodec.put_varint b n;
      let n' = Bincodec.read_varint (Bincodec.cursor (Bincodec.contents b)) in
      Alcotest.(check int) (Printf.sprintf "varint %d" n) n n')
    [ min_int; max_int; min_int + 1; max_int - 1; 0; 1; -1; 63; -64; 1 lsl 40 ]

let event_roundtrip =
  qcheck
    (QCheck2.Test.make ~name:"binary event round trip" ~count:300
       QCheck2.Gen.(list_size (int_range 0 40) Test_log.event_gen)
       (fun evs ->
         let b = Bincodec.writer () in
         List.iter (Bincodec.put_event b) evs;
         let evs' = decode_all (Bincodec.contents b) in
         List.length evs' = List.length evs && List.for_all2 Event.equal evs evs'))

let test_decode_garbage_raises () =
  List.iter
    (fun s ->
      match Bincodec.read_event (Bincodec.cursor s) with
      | _ -> Alcotest.failf "decoded garbage %S" s
      | exception Bincodec.Corrupt _ -> ())
    [ ""; "\255"; "\000\003"; "\000\001\004\255abc" ]

(* A length near max_int must not overflow the bounds check into a passing
   negative sum: decoding stays total (Corrupt, never Invalid_argument). *)
let test_decode_huge_length_raises () =
  List.iter
    (fun n ->
      let b = Bincodec.writer () in
      Bincodec.put_uvarint b n;
      Bincodec.put_raw b "abc";
      let payload = Bincodec.contents b in
      (match Bincodec.read_string (Bincodec.cursor payload) with
      | _ -> Alcotest.failf "read_string accepted length %d" n
      | exception Bincodec.Corrupt _ -> ());
      (* same length smuggled in as a Call's method-name field *)
      let ev = Buffer.create 16 in
      Buffer.add_string ev "\000\000";
      Buffer.add_string ev payload;
      match Bincodec.read_event (Bincodec.cursor (Buffer.contents ev)) with
      | _ -> Alcotest.failf "read_event accepted name length %d" n
      | exception Bincodec.Corrupt _ -> ())
    [ max_int; max_int - 1; max_int / 2; 1 lsl 40 ]

(* --- CRC-32 ------------------------------------------------------------------ *)

(* The bytewise definition, one bit at a time: the model the slice-by-8
   tables must reproduce. *)
let crc32_model s =
  let c = ref 0xffffffff in
  String.iter
    (fun ch ->
      c := !c lxor Char.code ch;
      for _ = 0 to 7 do
        c := if !c land 1 = 1 then 0xedb88320 lxor (!c lsr 1) else !c lsr 1
      done)
    s;
  !c lxor 0xffffffff

let test_crc32_matches_model () =
  Alcotest.(check int) "check value" 0xcbf43926 (Bincodec.crc32 "123456789");
  Alcotest.(check int) "empty" 0 (Bincodec.crc32 "");
  let rng = Prng.create 32 in
  for trial = 0 to 19 do
    let s = String.init (64 + trial) (fun _ -> Char.chr (Prng.int rng 256)) in
    (* every alignment, every tail length 0..17 after 0, 1 and 5 blocks *)
    for pos = 0 to 8 do
      List.iter
        (fun blocks ->
          for tail = 0 to 17 do
            let len = (8 * blocks) + tail in
            if pos + len <= String.length s then
              Alcotest.(check int)
                (Printf.sprintf "crc pos=%d len=%d" pos len)
                (crc32_model (String.sub s pos len))
                (Bincodec.crc32 ~pos ~len s)
          done)
        [ 0; 1; 5 ]
    done;
    Alcotest.(check int) "whole string" (crc32_model s) (Bincodec.crc32 s)
  done

let test_crc32_rejects_bad_ranges () =
  List.iter
    (fun (pos, len, s) ->
      match Bincodec.crc32 ?pos ?len s with
      | c -> Alcotest.failf "crc32 read out of bounds and returned %d" c
      | exception Invalid_argument _ -> ())
    [ (Some 2, Some 4096, "abc"); (Some (-1), None, "abc"); (Some 0, Some (-1), "abc");
      (Some 4, None, "abc"); (Some 1, Some 3, "abc"); (Some 1, Some max_int, "abc") ];
  Alcotest.(check int) "empty range at the end" 0 (Bincodec.crc32 ~pos:3 ~len:0 "abc");
  Alcotest.(check int) "range to the end" (crc32_model "bc") (Bincodec.crc32 ~pos:1 "abc")

(* --- segment files: round trip, rotation, recovery ------------------------ *)

let with_tmp f =
  let path = Filename.temp_file "vyrd_pipe" ".seg" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () -> f path)

let record ?(level = `View) ?(seed = 0) ?(ops = 40) () =
  Harness.run
    { Harness.default with threads = 4; ops_per_thread = ops; log_level = level; seed }
    (Subjects.multiset_vector.Subjects.build ~bug:false)

let check_same_log what (a : Log.t) (b : Log.t) =
  Alcotest.(check bool) (what ^ ": same level") true (Log.level a = Log.level b);
  Alcotest.(check int) (what ^ ": same length") (Log.length a) (Log.length b);
  Alcotest.(check bool)
    (what ^ ": same events") true
    (List.for_all2 Event.equal (Log.events a) (Log.events b))

let segment_file_roundtrip =
  qcheck
    (QCheck2.Test.make ~name:"segment write/read round trip" ~count:60
       QCheck2.Gen.(
         pair Test_log.level_gen (list_size (int_range 0 120) Test_log.event_gen))
       (fun (level, evs) ->
         let log = Log.create ~level () in
         List.iter (Log.append log) evs;
         with_tmp (fun path ->
             Segment.write_file ~segment_bytes:64 path log;
             let r = Segment.read path in
             (not r.Segment.truncated)
             && Log.level r.Segment.log = level
             && Log.length r.Segment.log = Log.length log
             && List.for_all2 Event.equal
                  (Log.events r.Segment.log)
                  (Log.events log))))

(* cwd is _build/default/test under [dune runtest], the repo root under
   [dune exec] *)
let examples_dir () =
  List.find Sys.file_exists [ "examples/logs"; "../../../examples/logs" ]

let test_binary_matches_text_on_examples () =
  (* the checked-in textual logs and their binary re-encoding must load to
     identical logs *)
  List.iter
    (fun file ->
      let path = Filename.concat (examples_dir ()) file in
      let log = Log.of_file path in
      Alcotest.(check bool) (file ^ ": non-trivial") true (Log.length log > 0);
      with_tmp (fun tmp ->
          Segment.write_file tmp log;
          let r = Segment.read tmp in
          Alcotest.(check bool) (file ^ ": clean") false r.Segment.truncated;
          check_same_log file log r.Segment.log))
    [ "multiset_vector.log"; "cache.log"; "scanfs.log" ]

let test_rotation_and_read_prefix () =
  let log = record ~level:`Full ~ops:60 () in
  let dir = Filename.temp_file "vyrd_rot" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () ->
      let base = Filename.concat dir "stream" in
      let w =
        Segment.create_writer ~segment_bytes:512 ~rotate_bytes:2048 ~level:`Full base
      in
      Log.iter (Segment.append w) log;
      Segment.close w;
      let files = Segment.writer_files w in
      Alcotest.(check bool) "rotated into several files" true (List.length files > 1);
      List.iter
        (fun f -> Alcotest.(check bool) (f ^ " sniffs binary") true (Segment.is_binary f))
        files;
      let r = Segment.read base in
      Alcotest.(check bool) "clean" false r.Segment.truncated;
      check_same_log "rotation set" log r.Segment.log)

(* Truncate a written segment file at a sweep of byte lengths and re-read:
   recovery must never raise, must always yield a prefix of the original
   events (every CRC-valid whole segment survives, the torn tail is
   discarded), and must read the untruncated file completely and cleanly. *)
let test_truncated_tail_recovery () =
  let log = record ~ops:25 () in
  let evs = Array.of_list (Log.events log) in
  with_tmp (fun path ->
      Segment.write_file ~segment_bytes:256 path log;
      let whole = In_channel.with_open_bin path In_channel.input_all in
      let size = String.length whole in
      Alcotest.(check bool) "several segments to tear" true (size > 1024);
      let saw_torn = ref 0 in
      for cut = 0 to size do
        if cut mod 7 = 0 || cut = size then begin
          let torn = path ^ ".torn" in
          Out_channel.with_open_bin torn (fun oc ->
              Out_channel.output_string oc (String.sub whole 0 cut));
          Fun.protect
            ~finally:(fun () -> Sys.remove torn)
            (fun () ->
              let r = Segment.read torn in
              let got = Log.events r.Segment.log in
              let n = List.length got in
              if n > Array.length evs then
                Alcotest.failf "cut at %d/%d: recovered more events than written"
                  cut size;
              if
                not
                  (List.for_all2 Event.equal got
                     (Array.to_list (Array.sub evs 0 n)))
              then
                Alcotest.failf "cut at %d/%d: recovered log is not a prefix" cut size;
              if r.Segment.truncated then incr saw_torn;
              if cut = size then begin
                Alcotest.(check bool) "full file reads clean" false r.Segment.truncated;
                Alcotest.(check int) "full file reads all" (Array.length evs)
                  (Log.length r.Segment.log)
              end)
        end
      done;
      Alcotest.(check bool) "sweep hit torn tails" true (!saw_torn > 0))

let test_corrupt_byte_stops_at_crc () =
  let log = record ~ops:25 () in
  with_tmp (fun path ->
      Segment.write_file ~segment_bytes:256 path log;
      let whole = In_channel.with_open_bin path In_channel.input_all in
      (* flip one byte most of the way in: everything before the damaged
         segment must survive, nothing may raise *)
      let at = String.length whole * 3 / 4 in
      let bytes = Bytes.of_string whole in
      Bytes.set bytes at (Char.chr (Char.code (Bytes.get bytes at) lxor 0xff));
      Out_channel.with_open_bin path (fun oc -> Out_channel.output_bytes oc bytes);
      let r = Segment.read path in
      Alcotest.(check bool) "marked truncated" true r.Segment.truncated;
      Alcotest.(check bool) "some prefix survived" true (Log.length r.Segment.log > 0);
      let got = Log.events r.Segment.log in
      let all = Array.of_list (Log.events log) in
      Alcotest.(check bool) "prefix of original" true
        (List.for_all2 Event.equal got
           (Array.to_list (Array.sub all 0 (List.length got)))))

(* Corrupt a byte inside a *middle* file of a rotation set: recovery must
   keep everything up to the damaged file, mark the stream truncated, and
   not read past it — later rotation files describe a suffix whose gap
   would silently corrupt any analysis run over the reassembled log. *)
let test_corrupt_middle_rotation_file () =
  let log = record ~level:`Full ~ops:60 () in
  let dir = Filename.temp_file "vyrd_midrot" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () ->
      let base = Filename.concat dir "stream" in
      let w =
        Segment.create_writer ~segment_bytes:512 ~rotate_bytes:2048 ~level:`Full base
      in
      Log.iter (Segment.append w) log;
      Segment.close w;
      let files = Segment.writer_files w in
      Alcotest.(check bool) "at least 3 files to damage the middle of" true
        (List.length files >= 3);
      let per_file =
        List.map (fun f -> Log.length (Segment.read f).Segment.log) files
      in
      let mid = List.length files / 2 in
      let victim = List.nth files mid in
      let bytes =
        Bytes.of_string (In_channel.with_open_bin victim In_channel.input_all)
      in
      let at = Bytes.length bytes / 2 in
      Bytes.set bytes at (Char.chr (Char.code (Bytes.get bytes at) lxor 0xff));
      Out_channel.with_open_bin victim (fun oc -> Out_channel.output_bytes oc bytes);
      let r = Segment.read base in
      Alcotest.(check bool) "marked truncated" true r.Segment.truncated;
      let before_victim =
        List.fold_left ( + ) 0 (List.filteri (fun i _ -> i < mid) per_file)
      in
      let n = Log.length r.Segment.log in
      Alcotest.(check bool)
        (Printf.sprintf "recovered %d: whole files before the damage survive" n)
        true
        (n >= before_victim);
      Alcotest.(check bool)
        (Printf.sprintf "recovered %d: stream ends inside the damaged file" n)
        true
        (n < before_victim + List.nth per_file mid + 1);
      let all = Array.of_list (Log.events log) in
      Alcotest.(check bool) "recovered log is a prefix" true
        (List.for_all2 Event.equal
           (Log.events r.Segment.log)
           (Array.to_list (Array.sub all 0 n))))

let test_not_a_segment_file_raises () =
  with_tmp (fun path ->
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc "# vyrd-log level=view\n");
      Alcotest.(check bool) "text log does not sniff binary" false
        (Segment.is_binary path);
      match Segment.read path with
      | _ -> Alcotest.fail "Segment.read accepted a text log"
      | exception Bincodec.Corrupt _ -> ())

(* --- the bounded ring ----------------------------------------------------- *)

let test_ring_order_and_close () =
  let r = Ring.create ~capacity:4 0 in
  Ring.push r 1;
  Ring.push r 2;
  Ring.push r 3;
  Alcotest.(check int) "length" 3 (Ring.length r);
  Alcotest.(check int) "high water" 3 (Ring.high_water r);
  Ring.close r;
  Alcotest.(check (option int)) "pop 1" (Some 1) (Ring.pop r);
  Alcotest.(check (option int)) "pop 2" (Some 2) (Ring.pop r);
  Alcotest.(check (option int)) "pop 3" (Some 3) (Ring.pop r);
  Alcotest.(check (option int)) "drained" None (Ring.pop r);
  (* pushes after close are silently dropped, not an exception: a stray
     late listener callback must not crash the instrumented program *)
  Ring.push r 99;
  Alcotest.(check (option int)) "still drained" None (Ring.pop r);
  Alcotest.(check int) "drop counted" 1 (Ring.rejected r)

let test_ring_backpressure () =
  let capacity = 8 in
  let n = 5_000 in
  let r = Ring.create ~capacity 0 in
  let consumer =
    Domain.spawn (fun () ->
        let rec go acc =
          match Ring.pop r with None -> List.rev acc | Some v -> go (v :: acc)
        in
        go [])
  in
  for i = 1 to n do
    Ring.push r i
  done;
  Ring.close r;
  let got = Domain.join consumer in
  Alcotest.(check int) "all values received" n (List.length got);
  Alcotest.(check bool) "in order" true (List.for_all2 ( = ) got (List.init n succ));
  Alcotest.(check bool)
    (Printf.sprintf "high water %d within capacity" (Ring.high_water r))
    true
    (Ring.high_water r <= capacity)

(* --- log traversal, drop counter, positioned parse errors ----------------- *)

let test_log_fold_snapshot_iter_agree () =
  let log = record ~level:`Full ~ops:30 () in
  let via_events = Log.events log in
  let via_fold = List.rev (Log.fold (fun acc ev -> ev :: acc) [] log) in
  let via_iter =
    let acc = ref [] in
    Log.iter (fun ev -> acc := ev :: !acc) log;
    List.rev !acc
  in
  let via_snapshot = Array.to_list (Log.snapshot log) in
  List.iter
    (fun (what, got) ->
      Alcotest.(check int) (what ^ " length") (List.length via_events) (List.length got);
      Alcotest.(check bool) (what ^ " events") true
        (List.for_all2 Event.equal via_events got))
    [ ("fold", via_fold); ("iter", via_iter); ("snapshot", via_snapshot) ]

let test_log_dropped_counter () =
  let log = Log.create ~level:`Io () in
  Log.append log (Event.Call { tid = 1; mid = "op"; args = [] });
  Log.append log (Event.Write { tid = 1; var = "x"; value = Repr.Int 1 });
  Log.append log (Event.Read { tid = 1; var = "x" });
  Alcotest.(check int) "one admitted" 1 (Log.length log);
  Alcotest.(check int) "two dropped" 2 (Log.dropped log)

let test_parse_error_is_positioned () =
  let path = Filename.temp_file "vyrd_bad" ".log" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_text path (fun oc ->
          Out_channel.output_string oc "# vyrd-log level=view\n";
          Out_channel.output_string oc
            (Event.to_line (Event.Commit { tid = 1 }) ^ "\n");
          Out_channel.output_string oc "not an event\n");
      match Log.of_file path with
      | (_ : Log.t) -> Alcotest.fail "malformed line accepted"
      | exception Log.Parse_error { line; message = _ } ->
        Alcotest.(check int) "1-based line of the bad event" 3 line)

(* --- metrics -------------------------------------------------------------- *)

let test_metrics_basics () =
  let m = Metrics.create () in
  let c = Metrics.counter m "events" in
  Metrics.incr c;
  Metrics.add c 9;
  Alcotest.(check int) "counter" 10 (Metrics.value c);
  Alcotest.(check int) "re-registration shares" 10
    (Metrics.value (Metrics.counter m "events"));
  let g = Metrics.gauge m "depth" in
  Metrics.record g 7;
  Metrics.record g 3;
  Alcotest.(check int) "gauge keeps max" 7 (Metrics.gauge_value g);
  let h = Metrics.histogram m "lat" in
  List.iter (Metrics.observe h) [ 1; 2; 4; 8; 1024; 100_000 ];
  Alcotest.(check int) "count" 6 (Metrics.hist_count h);
  Alcotest.(check int) "max" 100_000 (Metrics.hist_max h);
  Alcotest.(check bool) "p50 in range" true
    (Metrics.quantile h 0.5 >= 1 && Metrics.quantile h 0.5 <= 100_000);
  Alcotest.(check bool) "quantiles monotone" true
    (Metrics.quantile h 0.5 <= Metrics.quantile h 0.99);
  let json = Metrics.to_json m in
  List.iter
    (fun affix ->
      Alcotest.(check bool) ("json mentions " ^ affix) true (is_infix ~affix json))
    [ "\"events\":10"; "\"depth\":7"; "\"count\":6" ]

(* --- the farm vs the offline composed checker ----------------------------- *)

let capacity = 8

let composed_spec =
  Spec_compose.pair Vyrd_multiset.Multiset_spec.spec Vyrd_jlib.Vector.spec

let composed_view =
  Spec_compose.pair_views
    (Vyrd_multiset.Multiset_vector.viewdef ~capacity)
    (Vyrd_jlib.Vector.viewdef ~capacity)

let shards () =
  [
    Farm.shard ~mode:`View
      ~view:(Vyrd_multiset.Multiset_vector.viewdef ~capacity)
      "multiset" Vyrd_multiset.Multiset_spec.spec;
    Farm.shard ~mode:`View
      ~view:(Vyrd_jlib.Vector.viewdef ~capacity)
      "vector" Vyrd_jlib.Vector.spec;
  ]

let run_both ?(ms_bugs = []) ~seed () =
  let log = Log.create ~level:`View () in
  Vyrd_sched.Coop.run ~seed (fun s ->
      let ctx = Instrument.make s log in
      let ms = Vyrd_multiset.Multiset_vector.create ~bugs:ms_bugs ~capacity ctx in
      let v = Vyrd_jlib.Vector.create ~capacity ctx in
      for t = 1 to 4 do
        s.spawn (fun () ->
            let rng = Prng.create (seed + (19 * t)) in
            for _ = 1 to 15 do
              let x = Prng.int rng 5 in
              match Prng.int rng 8 with
              | 0 | 1 -> ignore (Vyrd_multiset.Multiset_vector.insert ms x)
              | 2 -> ignore (Vyrd_multiset.Multiset_vector.delete ms x)
              | 3 -> ignore (Vyrd_multiset.Multiset_vector.lookup ms x)
              | 4 | 5 -> ignore (Vyrd_jlib.Vector.add v x)
              | 6 -> ignore (Vyrd_jlib.Vector.remove_last v)
              | _ -> ignore (Vyrd_jlib.Vector.size v)
            done)
      done);
  log

let farm_check log =
  let farm = Farm.start ~capacity:64 ~level:(Log.level log) (shards ()) in
  Array.iter (Farm.feed farm) (Log.snapshot log);
  Farm.finish farm

let test_farm_agrees_on_correct_runs () =
  for seed = 0 to 7 do
    let log = run_both ~seed () in
    let offline = Checker.check ~mode:`View ~view:composed_view log composed_spec in
    let result = farm_check log in
    Alcotest.(check bool)
      (Printf.sprintf "seed %d offline pass" seed)
      true (Report.is_pass offline);
    Alcotest.(check bool)
      (Printf.sprintf "seed %d farm pass" seed)
      true
      (Report.is_pass result.Farm.merged);
    Alcotest.(check int)
      (Printf.sprintf "seed %d all events routed" seed)
      (Log.length log) result.Farm.fed;
    List.iter
      (fun (sr : Farm.shard_result) ->
        Alcotest.(check bool)
          (Printf.sprintf "seed %d %s bounded" seed sr.Farm.sr_name)
          true
          (sr.Farm.sr_high_water <= 64))
      result.Farm.shards
  done

let test_farm_agrees_on_buggy_runs () =
  (* sweep seeds; wherever the offline composed checker convicts the racy
     multiset, the farm must convict too (and vice versa) *)
  let convictions = ref 0 in
  for seed = 0 to 30 do
    let log =
      run_both ~ms_bugs:[ Vyrd_multiset.Multiset_vector.Racy_find_slot ] ~seed ()
    in
    let offline = Checker.check ~mode:`View ~view:composed_view log composed_spec in
    let result = farm_check log in
    if not (Report.is_pass offline) then incr convictions;
    Alcotest.(check bool)
      (Printf.sprintf "seed %d verdicts agree" seed)
      (Report.is_pass offline)
      (Report.is_pass result.Farm.merged);
    if not (Report.is_pass result.Farm.merged) then
      Alcotest.(check string)
        (Printf.sprintf "seed %d violation kind" seed)
        (Report.tag offline)
        (Report.tag result.Farm.merged)
  done;
  Alcotest.(check bool) "the sweep actually hit the bug" true (!convictions > 0)

let test_farm_streams_from_live_log () =
  (* end-to-end: harness -> log listener -> farm, multi-structure, with the
     subjects' own specs and views *)
  let subjects = [ Subjects.multiset_vector; Subjects.jvector ] in
  let log = Log.create ~level:`View () in
  let metrics = Metrics.create () in
  let farm =
    Farm.start ~capacity:128 ~metrics ~level:`View
      (List.map
         (fun (s : Subjects.t) ->
           Farm.shard ~mode:`View ~view:s.Subjects.view s.Subjects.name
             s.Subjects.spec)
         subjects)
  in
  Farm.attach farm log;
  Harness.run_into ~log
    { Harness.default with threads = 4; ops_per_thread = 40 }
    (List.map (fun (s : Subjects.t) -> s.Subjects.build ~bug:false) subjects);
  let result = Farm.finish farm in
  Alcotest.(check bool) "stream passes" true (Report.is_pass result.Farm.merged);
  Alcotest.(check int) "every event routed" (Log.length log) result.Farm.fed;
  Alcotest.(check bool) "finish is idempotent" true (Farm.finish farm == result)

let test_farm_runs_analysis_passes () =
  (* the analysis lane sees the whole stream — including the lock events the
     refinement router drops — and its summaries ride on the result *)
  let module Pass = Vyrd_analysis.Pass in
  let log = Log.create ~level:`Full () in
  Vyrd_sched.Coop.run ~seed:5 (fun s ->
      let ctx = Instrument.make s log in
      let ms = Vyrd_multiset.Multiset_vector.create ~capacity ctx in
      for t = 1 to 3 do
        s.spawn (fun () ->
            let rng = Prng.create (5 + (13 * t)) in
            for _ = 1 to 12 do
              ignore (Vyrd_multiset.Multiset_vector.insert ms (Prng.int rng 5))
            done)
      done);
  let metrics = Metrics.create () in
  let farm =
    Farm.start ~capacity:64 ~metrics ~passes:(Pass.for_level `Full) ~level:`Full
      [
        Farm.shard ~mode:`View
          ~view:(Vyrd_multiset.Multiset_vector.viewdef ~capacity)
          "multiset" Vyrd_multiset.Multiset_spec.spec;
      ]
  in
  Array.iter (Farm.feed farm) (Log.snapshot log);
  let result = Farm.finish farm in
  Alcotest.(check bool) "refinement passes" true (Report.is_pass result.Farm.merged);
  Alcotest.(check int) "three passes ran" 3 (List.length result.Farm.analysis);
  List.iter
    (fun (s : Pass.summary) ->
      Alcotest.(check int)
        (s.Pass.pass ^ " saw the whole stream")
        (Log.length log) s.Pass.events)
    result.Farm.analysis;
  Alcotest.(check int) "analysis.events counts each event once"
    (Log.length log)
    (Metrics.value (Metrics.counter metrics "analysis.events"));
  Alcotest.(check int) "no analysis errors on a correct run" 0
    (Metrics.value (Metrics.counter metrics "analysis.errors"));
  (* and a stream with a lock-order inversion is flagged in-lane *)
  let metrics = Metrics.create () in
  let farm =
    Farm.start ~capacity:64 ~metrics ~passes:[ Pass.lockgraph () ] ~level:`Full
      [
        Farm.shard ~mode:`View
          ~view:(Vyrd_multiset.Multiset_vector.viewdef ~capacity)
          "multiset" Vyrd_multiset.Multiset_spec.spec;
      ]
  in
  List.iter (Farm.feed farm)
    [
      Event.Acquire { tid = 1; lock = "a" };
      Event.Acquire { tid = 1; lock = "b" };
      Event.Release { tid = 1; lock = "b" };
      Event.Release { tid = 1; lock = "a" };
      Event.Acquire { tid = 2; lock = "b" };
      Event.Acquire { tid = 2; lock = "a" };
      Event.Release { tid = 2; lock = "a" };
      Event.Release { tid = 2; lock = "b" };
    ];
  let result = Farm.finish farm in
  (match result.Farm.analysis with
  | [ s ] ->
    Alcotest.(check string) "lockgraph summary" "lockgraph" s.Pass.pass;
    Alcotest.(check int) "one cycle error" 1 s.Pass.errors;
    Alcotest.(check bool) "summary not clean" false (Pass.clean s)
  | l -> Alcotest.failf "expected one summary, got %d" (List.length l));
  Alcotest.(check int) "analysis.errors metric" 1
    (Metrics.value (Metrics.counter metrics "analysis.errors"));
  Alcotest.(check int) "per-pass error gauge" 1
    (Metrics.gauge_value (Metrics.gauge metrics "analysis.errors.lockgraph"))

let test_farm_finish_idempotent () =
  (* a second finish — e.g. the server's cleanup path running after the
     verdict was already taken — must return the same result object and
     must not re-run the drain *)
  let log =
    run_both ~ms_bugs:[ Vyrd_multiset.Multiset_vector.Racy_find_slot ] ~seed:0 ()
  in
  let farm = Farm.start ~capacity:64 ~level:(Log.level log) (shards ()) in
  Array.iter (Farm.feed farm) (Log.snapshot log);
  let r1 = Farm.finish farm in
  let r2 = Farm.finish farm in
  Alcotest.(check bool) "same result object" true (r1 == r2);
  Alcotest.(check string) "same verdict" (Report.tag r1.Farm.merged)
    (Report.tag r2.Farm.merged);
  Alcotest.(check int) "same fed count" r1.Farm.fed r2.Farm.fed

let test_farm_view_requires_view_level () =
  match Farm.start ~level:`Io (shards ()) with
  | (_ : Farm.t) -> Alcotest.fail "`View shards accepted an `Io-level stream"
  | exception Invalid_argument _ -> ()

(* --- online checking with a bounded queue --------------------------------- *)

let test_online_capacity_and_high_water () =
  let s = Subjects.multiset_vector in
  let log = Log.create ~level:`View () in
  let online =
    Farm.start ~capacity:256 ~level:`View
      [
        Farm.shard ~mode:`View ~view:s.Subjects.view s.Subjects.name
          s.Subjects.spec;
      ]
  in
  Farm.attach online log;
  Vyrd_sched.Coop.run ~seed:3 (fun sched ->
      let ctx = Instrument.make sched log in
      let b = s.Subjects.build ~bug:false ctx in
      for t = 1 to 4 do
        sched.spawn (fun () ->
            let rng = Prng.create (3 + (7 * t)) in
            for _ = 1 to 30 do
              b.Harness.random_op rng (Prng.int rng 8)
            done)
      done);
  let report = (Farm.finish online).Farm.merged in
  Alcotest.(check bool) "passes" true (Report.is_pass report);
  let hw = report.Report.stats.Report.queue_high_water in
  Alcotest.(check bool)
    (Printf.sprintf "high water %d recorded and bounded" hw)
    true
    (hw > 0 && hw <= 256)

(* --- lane pool ------------------------------------------------------------- *)

(* Every farm's lanes run on the process-wide pool, which keeps at most this
   many domains parked. *)
let pool_cap = max 1 (Domain.recommended_domain_count () - 1)

let lane_counts metrics =
  ( Metrics.value (Metrics.counter metrics "farm.lane_spawns"),
    Metrics.value (Metrics.counter metrics "farm.lane_reuses") )

let test_pool_reuses_one_domain () =
  (* sequential one-lane farms: after the first, each finds the previous
     farm's domain parked *)
  let s = Subjects.multiset_vector in
  let metrics = Metrics.create () in
  for i = 0 to 9 do
    let log =
      Harness.run
        { Harness.default with threads = 3; ops_per_thread = 20; seed = i }
        (s.Subjects.build ~bug:(i mod 2 = 1))
    in
    let farm =
      Farm.start ~metrics ~capacity:64 ~level:`View
        [ Farm.shard ~mode:`View ~view:s.Subjects.view s.Subjects.name s.Subjects.spec ]
    in
    Log.iter (Farm.feed farm) log;
    let r = Farm.finish farm in
    let want = Checker.check ~mode:`View ~view:s.Subjects.view log s.Subjects.spec in
    Alcotest.(check string)
      (Printf.sprintf "farm %d: verdict = offline verdict" i)
      (Report.tag want) (Report.tag r.Farm.merged)
  done;
  let spawns, reuses = lane_counts metrics in
  Alcotest.(check int) "every lane started on the pool" 10 (spawns + reuses);
  Alcotest.(check bool) (Printf.sprintf "%d reuses of 10 lanes" reuses) true (reuses >= 9)

let test_pool_concurrent_farms_reverse_finish () =
  (* 4 two-lane farms all started before any is fed, finished last-first:
     8 lanes live at once, and finishing never waits on a parked domain *)
  let logs =
    List.init 4 (fun seed ->
        if seed mod 2 = 0 then run_both ~seed ()
        else run_both ~ms_bugs:[ Vyrd_multiset.Multiset_vector.Racy_find_slot ] ~seed ())
  in
  let wants = List.map farm_check logs in
  let round () =
    let metrics = Metrics.create () in
    let farms =
      List.map
        (fun log -> Farm.start ~metrics ~capacity:64 ~level:(Log.level log) (shards ()))
        logs
    in
    List.iter2 (fun farm log -> Array.iter (Farm.feed farm) (Log.snapshot log)) farms logs;
    List.iter
      (fun (farm, want) ->
        Alcotest.(check string) "verdict = one farm at a time"
          (Report.tag want.Farm.merged)
          (Report.tag (Farm.finish farm).Farm.merged))
      (List.rev (List.combine farms wants));
    lane_counts metrics
  in
  ignore (round ());
  (* every lane of the first round has parked or exited: the second round
     finds exactly the cap's worth parked *)
  let spawns, reuses = round () in
  Alcotest.(check int) "every lane started on the pool" 8 (spawns + reuses);
  Alcotest.(check int)
    (Printf.sprintf "reuses = parked domains, cap %d" pool_cap)
    (min pool_cap 8) reuses

(* A specification whose [apply] fails with [Failure] on argument 13 — not
   the [Invalid_argument] the checker turns into an ill-formed verdict. *)
module Boom = struct
  type state = int

  let name = "boom"
  let init () = 0
  let kind = function "op" -> Spec.Mutator | m -> invalid_arg m

  type meth = string
  let meth = Spec.by_name kind

  let apply st ~mid:_ ~args ~ret:_ =
    match args with [ Repr.Int 13 ] -> failwith "boom" | _ -> Ok (st + 1)

  let observe _ ~mid:_ ~args:_ ~ret:_ = true
  let view st = Repr.Int st
  let snapshot st = st
  let save st = Some (Repr.Int st)
  let load = function Repr.Int n -> n | _ -> invalid_arg "Boom.load"
end

let boom_ops n =
  List.concat_map
    (fun k ->
      [
        Event.Call { tid = 1; mid = "op"; args = [ Repr.Int k ] };
        Event.Commit { tid = 1 };
        Event.Return { tid = 1; mid = "op"; value = Repr.Unit };
      ])
    (List.init n Fun.id)

let test_finish_reraises_lane_exception () =
  let metrics = Metrics.create () in
  let farm =
    Farm.start ~metrics ~capacity:16 ~passes:(Vyrd_analysis.Pass.for_level `Full)
      ~level:`Full
      [ Farm.shard "boom" (module Boom : Spec.S) ]
  in
  (* far more events after the raise than the ring holds: the failed lane
     keeps draining, so the feeder never blocks *)
  List.iter (Farm.feed farm) (boom_ops 400);
  Alcotest.(check bool) "a failed lane answers the barrier with None" true
    (Farm.checkpoint farm = None);
  (match Farm.finish farm with
  | (_ : Farm.result) -> Alcotest.fail "finish swallowed the lane's exception"
  | exception Failure m -> Alcotest.(check string) "the lane's exception" "boom" m);
  (match Farm.finish farm with
  | (_ : Farm.result) -> Alcotest.fail "a second finish returned a result"
  | exception Failure _ -> ());
  (* no lane is stranded: the next farm checks on the parked domains *)
  let log =
    run_both ~ms_bugs:[ Vyrd_multiset.Multiset_vector.Racy_find_slot ] ~seed:0 ()
  in
  let want = farm_check log in
  let farm = Farm.start ~metrics ~capacity:64 ~level:(Log.level log) (shards ()) in
  Array.iter (Farm.feed farm) (Log.snapshot log);
  let r = Farm.finish farm in
  Alcotest.(check string) "next farm's verdict" (Report.tag want.Farm.merged)
    (Report.tag r.Farm.merged);
  Alcotest.(check (option int)) "next farm's fail index" (Farm.min_fail_index want)
    (Farm.min_fail_index r);
  let spawns, reuses = lane_counts metrics in
  Alcotest.(check int) "every lane started on the pool" 4 (spawns + reuses);
  Alcotest.(check bool) "the next farm reused a domain" true (reuses >= 1)

(* A pass whose [feed] raises on its 10th event.  The analysis lane takes no
   part in the checkpoint barrier, so a checkpoint still succeeds; the lane
   keeps draining after the raise, so the feeder never blocks on its small
   ring; and [finish] raises the pass's exception, after a checker lane's
   in lane order. *)
let boom_pass seen =
  {
    Vyrd_analysis.Pass.name = "boom";
    feed =
      (fun _ ->
        incr seen;
        if !seen = 10 then failwith "pass boom");
    finish = (fun () -> Vyrd_analysis.Pass.summarize ~pass:"boom" ~events:!seen []);
  }

let test_finish_reraises_failing_pass () =
  let finish_raises what farm want =
    match Farm.finish farm with
    | (_ : Farm.result) -> Alcotest.failf "%s: finish returned a result" what
    | exception Failure m -> Alcotest.(check string) what want m
  in
  let seen = ref 0 in
  let farm =
    Farm.start ~capacity:16 ~passes:[ boom_pass seen ] ~level:`Full
      [ Farm.shard "boom" (module Boom : Spec.S) ]
  in
  (* 1,200 events the checker lane accepts: no argument is 13 *)
  List.iter (Farm.feed farm)
    (List.map
       (function
         | Event.Call c -> Event.Call { c with args = [ Repr.Int 100 ] }
         | ev -> ev)
       (boom_ops 400));
  Alcotest.(check bool) "the analysis lane stays out of the barrier" true
    (Option.is_some (Farm.checkpoint farm));
  finish_raises "the pass's exception" farm "pass boom";
  finish_raises "the pass's exception, again" farm "pass boom";
  Alcotest.(check int) "the pass saw exactly 10 events" 10 !seen;
  let farm =
    Farm.start ~capacity:16 ~passes:[ boom_pass (ref 0) ] ~level:`Full
      [ Farm.shard "boom" (module Boom : Spec.S) ]
  in
  List.iter (Farm.feed farm) (boom_ops 400);
  finish_raises "a checker lane's exception comes first" farm "boom"

(* --- spool damage through the shared frame reader ------------------------- *)

(* Byte offsets of the frame headers of a one-file spool. *)
let frame_offsets whole =
  let rec go pos acc =
    if pos >= String.length whole then List.rev acc
    else
      let len = Int32.to_int (String.get_int32_le whole pos) land 0xffffffff in
      go (pos + 12 + len) (pos :: acc)
  in
  go (String.length Segment.magic + 1) []

(* Flip every bit of every 12-byte frame header of a spool holding a
   checkpoint frame.  The count word is outside the CRC, so a damaged
   header may be refused outright, but it may never leave a hole in the
   stream: whatever comes back is a prefix of the written events, marked
   [truncated] whenever it is short. *)
let test_header_bit_flips_never_leave_a_hole () =
  let evs = Log.snapshot (record ~ops:40 ()) in
  let n = Array.length evs in
  with_tmp (fun path ->
      let w = Segment.create_writer ~segment_bytes:400 ~level:`View path in
      Array.iteri
        (fun i ev ->
          if i = n / 2 then Segment.append_checkpoint w (Repr.Int i);
          Segment.append w ev)
        evs;
      Segment.close w;
      Alcotest.(check bool) "at least 10 segments" true (Segment.writer_segments w >= 10);
      Alcotest.(check int) "one checkpoint frame" 1 (Segment.writer_checkpoints w);
      let whole = In_channel.with_open_bin path In_channel.input_all in
      let flipped = path ^ ".flip" in
      Fun.protect ~finally:(fun () -> if Sys.file_exists flipped then Sys.remove flipped)
      @@ fun () ->
      List.iter
        (fun head ->
          for bit = 0 to 95 do
            let b = Bytes.of_string whole in
            let at = head + (bit / 8) in
            Bytes.set b at (Char.chr (Char.code (Bytes.get b at) lxor (1 lsl (bit mod 8))));
            Out_channel.with_open_bin flipped (fun oc -> Out_channel.output_bytes oc b);
            match Segment.read flipped with
            | exception Bincodec.Corrupt _ -> ()
            | r ->
              let got = Log.snapshot r.Segment.log in
              let k = Array.length got in
              let where = Printf.sprintf "bit %d of the header at byte %d" bit head in
              if k > n || not (Array.for_all2 Event.equal got (Array.sub evs 0 k)) then
                Alcotest.failf "%s: recovered log is not a prefix" where;
              if k < n && not r.Segment.truncated then
                Alcotest.failf "%s: %d of %d events, not marked truncated" where k n
          done)
        (frame_offsets whole))

(* A length word of 0xF0000000 on the last frame is checked against the
   bytes left in the file before any buffer is sized by it: the read
   recovers every earlier frame and allocates about the file, not 4 GB. *)
let test_hostile_last_length_allocates_nothing () =
  let log = record ~ops:40 () in
  with_tmp (fun path ->
      Segment.write_file ~segment_bytes:400 path log;
      let whole = In_channel.with_open_bin path In_channel.input_all in
      let heads = frame_offsets whole in
      let last = List.nth heads (List.length heads - 1) in
      let before_last =
        List.fold_left
          (fun acc h -> if h < last then acc + Int32.to_int (String.get_int32_le whole (h + 8)) else acc)
          0 heads
      in
      let b = Bytes.of_string whole in
      Bytes.set_int32_le b last (Int32.of_int 0xF0000000);
      Out_channel.with_open_bin path (fun oc -> Out_channel.output_bytes oc b);
      let before = Gc.allocated_bytes () in
      let r = Segment.read path in
      let grew = Gc.allocated_bytes () -. before in
      Alcotest.(check bool) "marked truncated" true r.Segment.truncated;
      Alcotest.(check int) "the frames before the last survive" before_last
        (Log.length r.Segment.log);
      Alcotest.(check bool)
        (Printf.sprintf "allocated %.0f bytes for a %d-byte file" grew (String.length whole))
        true
        (grew < float_of_int (String.length whole + (1 lsl 20))))

(* The router folds its counters into the registry in slices; by [finish]
   they read the stream's totals, whatever the slice boundaries: every
   event fed, every commit, and every read or lock event the refinement
   lanes skip.  One composite shard at [`Io] and per-subject shards at
   [`Full], on whole logs (lengths not a multiple of a slice) and on a
   window of exactly one 256-event slice that ends with a commit. *)
let test_farm_counters_read_totals () =
  let check what level shards events =
    let count p = Array.fold_left (fun n ev -> if p ev then n + 1 else n) 0 events in
    let metrics = Metrics.create () in
    let farm = Farm.start ~metrics ~level shards in
    Array.iter (Farm.feed farm) events;
    ignore (Farm.finish farm : Farm.result);
    let read name = Metrics.value (Metrics.counter metrics name) in
    Alcotest.(check int) (what ^ ": events fed") (Array.length events) (read "farm.events_fed");
    Alcotest.(check int) (what ^ ": commits")
      (count (function Event.Commit _ -> true | _ -> false))
      (read "farm.commits");
    Alcotest.(check int) (what ^ ": skipped")
      (count (function Event.Read _ | Event.Acquire _ | Event.Release _ -> true | _ -> false))
      (read "farm.events_skipped")
  in
  List.iter
    (fun (level, seed) ->
      let w =
        Workload.v Workload.composite
          ~config:{ Harness.default with threads = 3; ops_per_thread = 37; seed; log_level = level }
      in
      let events = Log.snapshot (Workload.log w) in
      let rec commit_from i =
        match events.(i) with Event.Commit _ -> i | _ -> commit_from (i + 1)
      in
      let last = commit_from 255 in
      let window = Array.sub events (last - 255) 256 in
      List.iter
        (fun shards ->
          let what = Printf.sprintf "%d shard(s), seed %d" (List.length shards) seed in
          check what level shards events;
          check (what ^ ", one slice") level shards window)
        [ [ Workload.composite_shard w level ]; Workload.shards w level ])
    [ (`Io, 5); (`Full, 6) ]

let suite =
  [
    varint_roundtrip;
    ("varint int extremes", `Quick, test_varint_extremes);
    event_roundtrip;
    ("garbage input raises Corrupt", `Quick, test_decode_garbage_raises);
    ("huge length raises Corrupt", `Quick, test_decode_huge_length_raises);
    ("crc32 = bytewise model at every alignment", `Quick, test_crc32_matches_model);
    ("crc32 rejects out-of-bounds ranges", `Quick, test_crc32_rejects_bad_ranges);
    segment_file_roundtrip;
    ( "binary matches text on examples/logs",
      `Quick,
      test_binary_matches_text_on_examples );
    ("rotation set reassembles via read_prefix", `Quick, test_rotation_and_read_prefix);
    ("truncated tails recover every whole segment", `Quick, test_truncated_tail_recovery);
    ("corrupt byte stops at the CRC", `Quick, test_corrupt_byte_stops_at_crc);
    ( "corrupt middle rotation file truncates there",
      `Quick,
      test_corrupt_middle_rotation_file );
    ("text log rejected by binary reader", `Quick, test_not_a_segment_file_raises);
    ("ring order, close, late-push drop", `Quick, test_ring_order_and_close);
    ("ring backpressure across domains", `Quick, test_ring_backpressure);
    ("fold/iter/snapshot agree with events", `Quick, test_log_fold_snapshot_iter_agree);
    ("dropped counter counts refused appends", `Quick, test_log_dropped_counter);
    ("parse errors carry the line number", `Quick, test_parse_error_is_positioned);
    ("metrics counters/gauges/histograms", `Quick, test_metrics_basics);
    ("farm = offline checker on correct runs", `Quick, test_farm_agrees_on_correct_runs);
    ("farm = offline checker on buggy runs", `Quick, test_farm_agrees_on_buggy_runs);
    ("farm streams from a live log", `Quick, test_farm_streams_from_live_log);
    ("farm runs analysis passes in-lane", `Quick, test_farm_runs_analysis_passes);
    ("farm finish is idempotent", `Quick, test_farm_finish_idempotent);
    ("farm `View shards reject `Io streams", `Quick, test_farm_view_requires_view_level);
    ("online bounded queue records high water", `Quick, test_online_capacity_and_high_water);
    ("pool: sequential farms reuse one domain", `Quick, test_pool_reuses_one_domain);
    ( "pool: concurrent farms finished in reverse",
      `Quick,
      test_pool_concurrent_farms_reverse_finish );
    ("farm finish re-raises a lane's exception", `Quick, test_finish_reraises_lane_exception);
    ("header bit flips never leave a hole", `Quick, test_header_bit_flips_never_leave_a_hole);
    ( "hostile last length allocates nothing",
      `Quick,
      test_hostile_last_length_allocates_nothing );
    ("farm finish re-raises a failing analysis pass", `Quick, test_finish_reraises_failing_pass);
    ("farm counters read the stream's totals at finish", `Quick, test_farm_counters_read_totals);
  ]
