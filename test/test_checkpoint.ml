(* Checkpointed resumable verification: checkpoint frames round trip
   through the segment writer and are invisible to plain event readers;
   checker snapshot/restore is equivalent to checking straight through; at
   every checkpoint position on both a correct and the checked-in buggy
   log, resume-verdict = offline-verdict with the same fail index and
   stats; a corrupted checkpoint frame can only cost replay work, never
   change a verdict; the farm-level checkpoint/restore and the
   annotate-then-resume spool protocol agree with a fresh farm; a spool
   checkpointed by a live farm resumes through the one-shard re-check, and
   an older checker/1 frame falls back to a full replay; and the
   metrics-registry regressions (mutex leaked on a kind mismatch, invalid
   \ddd JSON escapes) stay fixed. *)

open Vyrd
open Vyrd_harness
open Vyrd_pipeline

let qcheck t = QCheck_alcotest.to_alcotest t

(* cwd is _build/default/test under [dune runtest], the repo root under
   [dune exec] *)
let examples_dir () =
  List.find Sys.file_exists [ "examples/logs"; "../../../examples/logs" ]

let with_spool f =
  let path = Filename.temp_file "vyrd_ckpt" ".seg" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () -> f path)

(* --- checkpoint frames in the segment format ----------------------------- *)

let checkpoint_frame_roundtrip =
  qcheck
    (QCheck2.Test.make ~name:"checkpoint frame round trip" ~count:60
       QCheck2.Gen.(
         triple
           (list_size (int_range 0 30) Test_log.event_gen)
           (list_size (int_range 0 30) Test_log.event_gen)
           Test_core.repr_gen)
       (fun (before, after, state) ->
         with_spool @@ fun path ->
         let w = Segment.create_writer ~level:`Full path in
         List.iter (Segment.append w) before;
         Segment.append_checkpoint w state;
         List.iter (Segment.append w) after;
         Segment.close w;
         (* a checkpoint-blind reader sees exactly the events *)
         let plain = Segment.read_prefix path in
         (* the resuming reader additionally collects the frame *)
         let rz = Segment.read_from_checkpoint path in
         Log.events plain.Segment.log = before @ after
         && (not plain.Segment.truncated)
         && Log.events rz.Segment.r_recovered.Segment.log = before @ after
         && Segment.writer_checkpoints w = 1
         &&
         match rz.Segment.r_checkpoints with
         | [ ck ] ->
           ck.Segment.ck_events = List.length before && ck.Segment.ck_state = state
         | _ -> false))

(* --- checker snapshot/restore -------------------------------------------- *)

let subject = Subjects.multiset_vector

let buggy_log () =
  Log.of_file (Filename.concat (examples_dir ()) "multiset_vector_buggy.log")

let correct_log () =
  Harness.run
    { Harness.default with threads = 4; ops_per_thread = 25; log_level = `View }
    (subject.Subjects.build ~bug:false)

let offline log =
  let r =
    Checker.check ~mode:`View ~view:subject.Subjects.view log
      subject.Subjects.spec
  in
  let fail =
    match r.Report.outcome with
    | Report.Pass -> None
    | Report.Fail _ -> Some (r.Report.stats.Report.events_processed - 1)
  in
  (r, fail)

let check_stats name (a : Report.stats) (b : Report.stats) =
  Alcotest.(check int) (name ^ ": events processed") a.Report.events_processed
    b.Report.events_processed;
  Alcotest.(check int) (name ^ ": methods checked") a.Report.methods_checked
    b.Report.methods_checked;
  Alcotest.(check int) (name ^ ": commits resolved") a.Report.commits_resolved
    b.Report.commits_resolved;
  Alcotest.(check (list (pair string int))) (name ^ ": per-method counts")
    a.Report.per_method b.Report.per_method

let test_snapshot_restore_roundtrip () =
  let log = correct_log () in
  let events = Log.snapshot log in
  let n = Array.length events in
  let straight, _ = offline log in
  List.iter
    (fun quarter ->
      let cut = n * quarter / 4 in
      let a =
        Checker.create ~mode:`View ~view:subject.Subjects.view
          subject.Subjects.spec
      in
      for i = 0 to cut - 1 do
        ignore (Checker.feed a events.(i))
      done;
      match Checker.snapshot a with
      | None -> Alcotest.fail "snapshot refused on a violation-free prefix"
      | Some st ->
        let b =
          Checker.create ~mode:`View ~view:subject.Subjects.view
            subject.Subjects.spec
        in
        Checker.restore b st;
        for i = cut to n - 1 do
          ignore (Checker.feed b events.(i))
        done;
        let rb = Checker.report b in
        let name = Printf.sprintf "cut at %d/%d" cut n in
        Alcotest.(check string) (name ^ ": verdict") (Report.tag straight)
          (Report.tag rb);
        check_stats name straight.Report.stats rb.Report.stats)
    [ 1; 2; 3 ]

(* A View-mode checker snapshot taken after the first 1600 events of
   [Test_oracle.long_cycle ~pairs:1100] by the checker that still kept up
   to 1024 prunable specification states: its window holds all 331 states
   since the start.  It must restore and finish with the verdict and
   first-violation index of an uninterrupted run. *)
let wide_window_snapshot =
  {|
   (P "checker/1" (L 1600 330 330 385 (L (P "delete" 165) (P "insert" 165) (P
   "lookup" 55)) 0 (L (L) (L (P 0 1)) (L (P 0 2)) (L (P 0 3)) (L (P 0 2)) (L (P
   0 1)) (L) (L (P 0 1)) (L (P 0 2)) (L (P 0 3)) (L (P 0 2)) (L (P 0 1)) (L) (L
   (P 0 1)) (L (P 0 2)) (L (P 0 3)) (L (P 0 2)) (L (P 0 1)) (L) (L (P 0 1)) (L
   (P 0 2)) (L (P 0 3)) (L (P 0 2)) (L (P 0 1)) (L) (L (P 0 1)) (L (P 0 2)) (L
   (P 0 3)) (L (P 0 2)) (L (P 0 1)) (L) (L (P 0 1)) (L (P 0 2)) (L (P 0 3)) (L
   (P 0 2)) (L (P 0 1)) (L) (L (P 0 1)) (L (P 0 2)) (L (P 0 3)) (L (P 0 2)) (L
   (P 0 1)) (L) (L (P 0 1)) (L (P 0 2)) (L (P 0 3)) (L (P 0 2)) (L (P 0 1)) (L)
   (L (P 0 1)) (L (P 0 2)) (L (P 0 3)) (L (P 0 2)) (L (P 0 1)) (L) (L (P 0 1))
   (L (P 0 2)) (L (P 0 3)) (L (P 0 2)) (L (P 0 1)) (L) (L (P 0 1)) (L (P 0 2))
   (L (P 0 3)) (L (P 0 2)) (L (P 0 1)) (L) (L (P 0 1)) (L (P 0 2)) (L (P 0 3))
   (L (P 0 2)) (L (P 0 1)) (L) (L (P 0 1)) (L (P 0 2)) (L (P 0 3)) (L (P 0 2))
   (L (P 0 1)) (L) (L (P 0 1)) (L (P 0 2)) (L (P 0 3)) (L (P 0 2)) (L (P 0 1))
   (L) (L (P 0 1)) (L (P 0 2)) (L (P 0 3)) (L (P 0 2)) (L (P 0 1)) (L) (L (P 0
   1)) (L (P 0 2)) (L (P 0 3)) (L (P 0 2)) (L (P 0 1)) (L) (L (P 0 1)) (L (P 0
   2)) (L (P 0 3)) (L (P 0 2)) (L (P 0 1)) (L) (L (P 0 1)) (L (P 0 2)) (L (P 0
   3)) (L (P 0 2)) (L (P 0 1)) (L) (L (P 0 1)) (L (P 0 2)) (L (P 0 3)) (L (P 0
   2)) (L (P 0 1)) (L) (L (P 0 1)) (L (P 0 2)) (L (P 0 3)) (L (P 0 2)) (L (P 0
   1)) (L) (L (P 0 1)) (L (P 0 2)) (L (P 0 3)) (L (P 0 2)) (L (P 0 1)) (L) (L
   (P 0 1)) (L (P 0 2)) (L (P 0 3)) (L (P 0 2)) (L (P 0 1)) (L) (L (P 0 1)) (L
   (P 0 2)) (L (P 0 3)) (L (P 0 2)) (L (P 0 1)) (L) (L (P 0 1)) (L (P 0 2)) (L
   (P 0 3)) (L (P 0 2)) (L (P 0 1)) (L) (L (P 0 1)) (L (P 0 2)) (L (P 0 3)) (L
   (P 0 2)) (L (P 0 1)) (L) (L (P 0 1)) (L (P 0 2)) (L (P 0 3)) (L (P 0 2)) (L
   (P 0 1)) (L) (L (P 0 1)) (L (P 0 2)) (L (P 0 3)) (L (P 0 2)) (L (P 0 1)) (L)
   (L (P 0 1)) (L (P 0 2)) (L (P 0 3)) (L (P 0 2)) (L (P 0 1)) (L) (L (P 0 1))
   (L (P 0 2)) (L (P 0 3)) (L (P 0 2)) (L (P 0 1)) (L) (L (P 0 1)) (L (P 0 2))
   (L (P 0 3)) (L (P 0 2)) (L (P 0 1)) (L) (L (P 0 1)) (L (P 0 2)) (L (P 0 3))
   (L (P 0 2)) (L (P 0 1)) (L) (L (P 0 1)) (L (P 0 2)) (L (P 0 3)) (L (P 0 2))
   (L (P 0 1)) (L) (L (P 0 1)) (L (P 0 2)) (L (P 0 3)) (L (P 0 2)) (L (P 0 1))
   (L) (L (P 0 1)) (L (P 0 2)) (L (P 0 3)) (L (P 0 2)) (L (P 0 1)) (L) (L (P 0
   1)) (L (P 0 2)) (L (P 0 3)) (L (P 0 2)) (L (P 0 1)) (L) (L (P 0 1)) (L (P 0
   2)) (L (P 0 3)) (L (P 0 2)) (L (P 0 1)) (L) (L (P 0 1)) (L (P 0 2)) (L (P 0
   3)) (L (P 0 2)) (L (P 0 1)) (L) (L (P 0 1)) (L (P 0 2)) (L (P 0 3)) (L (P 0
   2)) (L (P 0 1)) (L) (L (P 0 1)) (L (P 0 2)) (L (P 0 3)) (L (P 0 2)) (L (P 0
   1)) (L) (L (P 0 1)) (L (P 0 2)) (L (P 0 3)) (L (P 0 2)) (L (P 0 1)) (L) (L
   (P 0 1)) (L (P 0 2)) (L (P 0 3)) (L (P 0 2)) (L (P 0 1)) (L) (L (P 0 1)) (L
   (P 0 2)) (L (P 0 3)) (L (P 0 2)) (L (P 0 1)) (L) (L (P 0 1)) (L (P 0 2)) (L
   (P 0 3)) (L (P 0 2)) (L (P 0 1)) (L) (L (P 0 1)) (L (P 0 2)) (L (P 0 3)) (L
   (P 0 2)) (L (P 0 1)) (L) (L (P 0 1)) (L (P 0 2)) (L (P 0 3)) (L (P 0 2)) (L
   (P 0 1)) (L) (L (P 0 1)) (L (P 0 2)) (L (P 0 3)) (L (P 0 2)) (L (P 0 1)) (L)
   (L (P 0 1)) (L (P 0 2)) (L (P 0 3)) (L (P 0 2)) (L (P 0 1)) (L) (L (P 0 1))
   (L (P 0 2)) (L (P 0 3)) (L (P 0 2)) (L (P 0 1)) (L) (L (P 0 1)) (L (P 0 2))
   (L (P 0 3)) (L (P 0 2)) (L (P 0 1)) (L) (L (P 0 1)) (L (P 0 2)) (L (P 0 3))
   (L (P 0 2)) (L (P 0 1)) (L) (L (P 0 1)) (L (P 0 2)) (L (P 0 3)) (L (P 0 2))
   (L (P 0 1)) (L) (L (P 0 1)) (L (P 0 2)) (L (P 0 3)) (L (P 0 2)) (L (P 0 1))
   (L) (L (P 0 1)) (L (P 0 2)) (L (P 0 3)) (L (P 0 2)) (L (P 0 1)) (L) (L (P 0
   1)) (L (P 0 2)) (L (P 0 3)) (L (P 0 2)) (L (P 0 1)) (L) (L (P 0 1)) (L (P 0
   2)) (L (P 0 3)) (L (P 0 2)) (L (P 0 1)) (L)) (L) (L (L 1 "insert" (L 0) 0
   330 f) (L 2 "insert" (L 0) 0 330 f) (L 4 "lookup" (L 0) 1 330 f)) (L) (L (L
   (P "A[0].elt" 0) (P "A[0].valid" t) (P "A[1].elt" 0) (P "A[1].valid" f) (P
   "A[2].elt" 0) (P "A[2].valid" f)) (L))))
  |}

let window_states snapshot =
  match snapshot with
  | Repr.Pair (Repr.Str "checker/1", Repr.List fields) -> (
    match List.nth fields 6 with Repr.List states -> List.length states | _ -> -1)
  | _ -> -1

let test_wide_window_snapshot_restores () =
  let spec = Vyrd_multiset.Multiset_spec.spec in
  let view = Vyrd_multiset.Multiset_vector.viewdef ~capacity:16 in
  let base = Test_oracle.long_cycle ~pairs:1100 in
  let cut = 1600 in
  let wide =
    String.split_on_char '\n' wide_window_snapshot
    |> List.map String.trim
    |> List.filter (( <> ) "")
    |> String.concat " " |> Repr.of_text
  in
  Alcotest.(check int) "the recorded window" 331 (window_states wide);
  (* a clean suffix, and one whose first delete after the cut lies *)
  let lying =
    let evs = Array.copy base in
    let i = ref cut in
    while
      match evs.(!i) with Event.Return { mid = "delete"; _ } -> false | _ -> true
    do
      incr i
    done;
    (match evs.(!i) with
    | Event.Return { tid; mid; _ } -> evs.(!i) <- Event.Return { tid; mid; value = Repr.Bool false }
    | _ -> ());
    evs
  in
  List.iter
    (fun (name, evs) ->
      let log = Log.of_events (Array.to_list evs) in
      let straight, straight_at = Checker.check_indexed ~mode:`View ~view log spec in
      let c = Checker.create ~mode:`View ~view spec in
      for i = 0 to cut - 1 do
        ignore (Checker.feed c evs.(i))
      done;
      (match Checker.snapshot c with
      | Some own ->
        Alcotest.(check bool) (name ^ ": today's window is tight") true
          (window_states own < 8)
      | None -> Alcotest.fail "no snapshot on a clean prefix");
      let r = Checker.create ~mode:`View ~view spec in
      Checker.restore r wide;
      let fail_at = ref None in
      for i = cut to Array.length evs - 1 do
        match Checker.feed r evs.(i) with
        | Some _ when !fail_at = None -> fail_at := Some i
        | _ -> ()
      done;
      Alcotest.(check string) (name ^ ": verdict") (Report.tag straight)
        (Report.tag (Checker.report r));
      Alcotest.(check (option int)) (name ^ ": first violation") straight_at !fail_at)
    [ ("clean suffix", base); ("lying delete", lying) ]

(* --- resume = offline at every checkpoint position ------------------------ *)

(* the one-shard farm a single-structure re-check runs *)
let shards _level =
  [ Farm.shard ~mode:`View ~view:subject.Subjects.view subject.Subjects.name
      subject.Subjects.spec ]

(* spool [log] and annotate it with farm checkpoints every [every] events *)
let spool_with_checkpoints ~every ~path log =
  Segment.write_file path log;
  Resume.resume ~annotate_every:every ~shards ~path ()

let resume_equals_offline_everywhere ~every name log =
  with_spool @@ fun path ->
  let off, off_fail = offline log in
  let spool = spool_with_checkpoints ~every ~path log in
  Alcotest.(check string) (name ^ ": spooled check = offline") (Report.tag off)
    (Report.tag spool.Resume.report);
  Alcotest.(check (option int)) (name ^ ": spooled fail index") off_fail
    spool.Resume.fail_index;
  let rz = Segment.read_from_checkpoint path in
  Alcotest.(check bool) (name ^ ": spool carries checkpoints") true
    (rz.Segment.r_checkpoints <> []);
  List.iter
    (fun (ck : Segment.checkpoint) ->
      let at = ck.Segment.ck_events in
      let o = Resume.resume_recovered ~at ~shards rz in
      let pos = Printf.sprintf "%s, checkpoint at %d" name at in
      Alcotest.(check (option int)) (pos ^ ": resumed there") (Some at)
        o.Resume.resumed_at;
      Alcotest.(check int) (pos ^ ": replayed the suffix only")
        (Log.length log - at) o.Resume.replayed;
      Alcotest.(check string) (pos ^ ": verdict") (Report.tag off)
        (Report.tag o.Resume.report);
      Alcotest.(check (option int)) (pos ^ ": fail index") off_fail
        o.Resume.fail_index;
      check_stats pos off.Report.stats o.Resume.report.Report.stats)
    rz.Segment.r_checkpoints

let test_resume_equals_offline_correct () =
  resume_equals_offline_everywhere ~every:50 "correct run" (correct_log ())

let test_resume_equals_offline_buggy () =
  let log = buggy_log () in
  let off, _ = offline log in
  Alcotest.(check bool) "example log is convicting" false (Report.is_pass off);
  (* the example log convicts early (event ~18), so checkpoint densely:
     every position before the violation, including ones with windows still
     open across the checkpoint, must resume to the identical verdict *)
  resume_equals_offline_everywhere ~every:5 "buggy run" log

(* --- corruption can cost replay work, never a verdict --------------------- *)

let le32 s off =
  Char.code s.[off]
  lor (Char.code s.[off + 1] lsl 8)
  lor (Char.code s.[off + 2] lsl 16)
  lor (Char.code s.[off + 3] lsl 24)

(* walk [magic + level | len crc count | payload]* and return the extent of
   the first frame whose count word carries the checkpoint flag (bit 31) *)
let find_checkpoint_frame bytes =
  let file_header = 7 and frame_header = 12 in
  let rec go pos =
    if pos + frame_header > String.length bytes then
      Alcotest.fail "no checkpoint frame in the spool"
    else
      let len = le32 bytes pos in
      if le32 bytes (pos + 8) land 0x80000000 <> 0 then (pos, frame_header + len)
      else go (pos + frame_header + len)
  in
  go file_header

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let test_corrupt_checkpoint_never_changes_verdict () =
  let log = correct_log () in
  with_spool @@ fun path ->
  ignore (spool_with_checkpoints ~every:200 ~path log : Resume.outcome);
  let original = read_file path in
  let frame_off, frame_len = find_checkpoint_frame original in
  let stride = max 1 (frame_len / 128) in
  let p = ref frame_off in
  while !p < frame_off + frame_len do
    let flipped = Bytes.of_string original in
    Bytes.set flipped !p (Char.chr (Char.code original.[!p] lxor 0xff));
    write_file path (Bytes.to_string flipped);
    (match Resume.resume ~shards ~path () with
    | outcome ->
      (* whatever prefix the damaged spool still cleanly recovers, the
         resumed verdict must be the offline verdict of that prefix *)
      let r = Segment.read_prefix path in
      let off, off_fail = offline r.Segment.log in
      let pos = Printf.sprintf "flip at byte %d" !p in
      Alcotest.(check string) (pos ^ ": verdict") (Report.tag off)
        (Report.tag outcome.Resume.report);
      Alcotest.(check (option int)) (pos ^ ": fail index") off_fail
        outcome.Resume.fail_index
    | exception Bincodec.Corrupt _ ->
      (* refusing to produce any verdict is always safe *)
      ());
    p := !p + stride
  done

(* --- farm checkpoint/restore --------------------------------------------- *)

let pipeline_subjects =
  [ Subjects.multiset_vector; Subjects.jvector; Subjects.string_buffer ]

let farm_shards () =
  List.map
    (fun (s : Subjects.t) ->
      Farm.shard ~mode:`View ~view:s.Subjects.view s.Subjects.name
        s.Subjects.spec)
    pipeline_subjects

let multi_log () =
  let log = Log.create ~level:`View () in
  Harness.run_into ~log
    { Harness.default with threads = 6; ops_per_thread = 60; key_pool = 10;
      key_range = 16; seed = 3 }
    (List.map (fun (s : Subjects.t) -> s.Subjects.build ~bug:false) pipeline_subjects);
  log

let test_farm_checkpoint_restore_equivalence () =
  let events = Log.snapshot (multi_log ()) in
  let n = Array.length events in
  let run_farm ?restore ~from () =
    let farm = Farm.start ?restore ~capacity:1024 ~level:`View (farm_shards ()) in
    let mid = ref None in
    for i = from to n - 1 do
      Farm.feed farm events.(i);
      if i = (n / 2) - 1 && from = 0 then mid := Farm.checkpoint farm
    done;
    (Farm.finish farm, !mid)
  in
  let full, mid = run_farm ~from:0 () in
  let state =
    match mid with
    | Some st -> st
    | None -> Alcotest.fail "mid-stream farm checkpoint refused"
  in
  let resumed, _ = run_farm ~restore:state ~from:(n / 2) () in
  Alcotest.(check string) "merged verdict" (Report.tag full.Farm.merged)
    (Report.tag resumed.Farm.merged);
  Alcotest.(check (option int)) "fail index" (Farm.min_fail_index full)
    (Farm.min_fail_index resumed);
  Alcotest.(check int) "events fed counts the restored prefix" full.Farm.fed
    resumed.Farm.fed;
  check_stats "farm restore" full.Farm.merged.Report.stats
    resumed.Farm.merged.Report.stats

(* The batched router buffers routed events in per-lane pending slices; a
   checkpoint taken mid-batch (cursor not on a slice boundary) must flush
   them through the snap-token barrier and produce exactly the snapshot an
   explicit batch-boundary flush would, and resuming from it must agree
   with the straight-through run. *)
let test_farm_checkpoint_mid_batch () =
  let events = Log.snapshot (multi_log ()) in
  let n = Array.length events in
  let feed_range farm i0 i1 =
    for i = i0 to i1 - 1 do
      Farm.feed farm events.(i)
    done
  in
  let full =
    let farm = Farm.start ~capacity:1024 ~level:`View (farm_shards ()) in
    feed_range farm 0 n;
    Farm.finish farm
  in
  List.iter
    (fun cut ->
      let name = Printf.sprintf "cut at %d/%d" cut n in
      (* checkpoint with slices in flight: [feed] alone never flushes the
         final partial slice, so at an off-boundary cut the lanes have not
         seen every routed event yet *)
      let f1 = Farm.start ~capacity:1024 ~level:`View (farm_shards ()) in
      feed_range f1 0 cut;
      let s1 = Farm.checkpoint f1 in
      ignore (Farm.finish f1 : Farm.result);
      (* same prefix, but force the batch boundary first *)
      let f2 = Farm.start ~capacity:1024 ~level:`View (farm_shards ()) in
      feed_range f2 0 cut;
      Farm.flush f2;
      let s2 = Farm.checkpoint f2 in
      ignore (Farm.finish f2 : Farm.result);
      match (s1, s2) with
      | Some a, Some b ->
        Alcotest.(check bool)
          (name ^ ": mid-batch snapshot = batch-boundary snapshot")
          true (Repr.equal a b);
        let f3 = Farm.start ~restore:a ~capacity:1024 ~level:`View (farm_shards ()) in
        feed_range f3 cut n;
        let resumed = Farm.finish f3 in
        Alcotest.(check string) (name ^ ": resumed verdict")
          (Report.tag full.Farm.merged)
          (Report.tag resumed.Farm.merged);
        Alcotest.(check (option int)) (name ^ ": resumed fail index")
          (Farm.min_fail_index full) (Farm.min_fail_index resumed);
        Alcotest.(check int) (name ^ ": fed counts the restored prefix")
          full.Farm.fed resumed.Farm.fed;
        check_stats (name ^ ": resumed stats") full.Farm.merged.Report.stats
          resumed.Farm.merged.Report.stats
      | _ -> Alcotest.fail (name ^ ": farm checkpoint refused"))
    [ 7; (n / 2) + 13; n - 3 ]

let test_resume_farm_annotates_then_resumes () =
  let log = multi_log () in
  with_spool @@ fun path ->
  let w = Segment.create_writer ~level:`View path in
  Log.iter (Segment.append w) log;
  Segment.close w;
  let shards _level = farm_shards () in
  (* first pass: nothing to resume from; annotates as it replays *)
  let o1 = Resume.resume ~annotate_every:200 ~shards ~path () in
  Alcotest.(check (option int)) "first pass replays from zero" None
    o1.Resume.resumed_at;
  Alcotest.(check int) "first pass replays everything" (Log.length log)
    o1.Resume.replayed;
  (* second pass: the final annotation covers the whole spool *)
  let o2 = Resume.resume ~shards ~path () in
  Alcotest.(check (option int)) "second pass resumes at the end"
    (Some (Log.length log)) o2.Resume.resumed_at;
  Alcotest.(check int) "second pass replays nothing" 0 o2.Resume.replayed;
  Alcotest.(check string) "verdicts agree" (Report.tag o1.Resume.report)
    (Report.tag o2.Resume.report);
  Alcotest.(check (option int)) "fail indices agree" o1.Resume.fail_index
    o2.Resume.fail_index

(* --- one checkpoint payload, read by every re-check ------------------------ *)

(* A spool checkpointed the way [vyrd_check pipeline] and the coordinator
   write it — farm barriers interleaved by a log listener subscribed after
   the farm and the writer — resumes at its newest frame through the
   one-shard re-check [vyrd_check check --resume] runs. *)
let test_farm_checkpointed_spool_resumes_one_shard () =
  with_spool @@ fun path ->
  let log = Log.create ~level:`View () in
  let farm = Farm.start ~level:`View (shards `View) in
  Farm.attach farm log;
  let w = Segment.create_writer ~level:`View path in
  Segment.attach w log;
  let seen = ref 0 and newest = ref None in
  Log.subscribe log (fun _ ->
      incr seen;
      if !seen mod 200 = 0 then
        match Farm.checkpoint farm with
        | Some st ->
          Segment.append_checkpoint w st;
          newest := Some !seen
        | None -> ());
  Harness.run_into ~log
    { Harness.default with threads = 4; ops_per_thread = 25; log_level = `View }
    [ subject.Subjects.build ~bug:false ];
  Segment.close w;
  let live = Farm.finish farm in
  let off, off_fail = offline log in
  Alcotest.(check bool) "frames were interleaved" true (!newest <> None);
  let o = Resume.resume ~shards ~path () in
  Alcotest.(check (option int)) "resumed at the newest frame" !newest
    o.Resume.resumed_at;
  Alcotest.(check int) "replayed the suffix only"
    (Log.length log - Option.get !newest)
    o.Resume.replayed;
  Alcotest.(check string) "live verdict = offline" (Report.tag off)
    (Report.tag live.Farm.merged);
  Alcotest.(check string) "resumed verdict = offline" (Report.tag off)
    (Report.tag o.Resume.report);
  Alcotest.(check (option int)) "fail index" off_fail o.Resume.fail_index;
  check_stats "resumed" off.Report.stats o.Resume.report.Report.stats

(* A spool from before farm checkpoints were the one payload carries a
   [checker/1] frame: the farm cannot restore it, so the re-check falls
   back to a full replay — same verdict and fail index as offline. *)
let test_legacy_checker_frame_replays_in_full () =
  List.iter
    (fun (name, log, cut) ->
      with_spool @@ fun path ->
      let events = Log.snapshot log in
      let c =
        Checker.create ~mode:`View ~view:subject.Subjects.view subject.Subjects.spec
      in
      let w = Segment.create_writer ~level:(Log.level log) path in
      Array.iteri
        (fun i ev ->
          if i = cut then (
            match Checker.snapshot c with
            | Some st -> Segment.append_checkpoint w st
            | None -> Alcotest.fail (name ^ ": snapshot refused before the cut"));
          ignore (Checker.feed c ev);
          Segment.append w ev)
        events;
      Segment.close w;
      (match (Segment.read_from_checkpoint path).Segment.r_checkpoints with
      | [ { Segment.ck_events; ck_state = Repr.Pair (Repr.Str "checker/1", _) } ] ->
        Alcotest.(check int) (name ^ ": frame position") cut ck_events
      | _ -> Alcotest.fail (name ^ ": expected one checker/1 frame"));
      let off, off_fail = offline log in
      let o = Resume.resume ~shards ~path () in
      Alcotest.(check (option int)) (name ^ ": full replay") None o.Resume.resumed_at;
      Alcotest.(check int) (name ^ ": replayed everything") (Array.length events)
        o.Resume.replayed;
      Alcotest.(check string) (name ^ ": verdict") (Report.tag off)
        (Report.tag o.Resume.report);
      Alcotest.(check (option int)) (name ^ ": fail index") off_fail
        o.Resume.fail_index)
    [ ("correct run", correct_log (), 100); ("buggy run", buggy_log (), 10) ]

(* --- metrics-registry regressions ----------------------------------------- *)

let test_metrics_lock_released_on_kind_mismatch () =
  let m = Metrics.create () in
  ignore (Metrics.counter m "x" : Metrics.counter);
  (match Metrics.gauge m "x" with
  | _ -> Alcotest.fail "kind mismatch accepted"
  | exception Invalid_argument _ -> ());
  (* before the fix the raise left the registry mutex locked, so any later
     registration — here from another thread, with a timeout so a
     regression fails instead of hanging the suite — deadlocked *)
  let ok = Atomic.make false in
  let th =
    Thread.create
      (fun () ->
        (match Metrics.histogram m "x" with
        | _ -> ()
        | exception Invalid_argument _ -> ());
        ignore (Metrics.counter m "y" : Metrics.counter);
        ignore (Metrics.to_json m : string);
        Atomic.set ok true)
      ()
  in
  let deadline = Unix.gettimeofday () +. 5. in
  while (not (Atomic.get ok)) && Unix.gettimeofday () < deadline do
    Thread.delay 0.01
  done;
  Alcotest.(check bool) "registry usable after a raise inside the lock" true
    (Atomic.get ok);
  if Atomic.get ok then Thread.join th

(* A strict parser for the JSON subset Metrics.to_json emits — objects,
   strings and numbers — that rejects raw control characters and unknown
   escapes, and decodes \uXXXX; returns every string key it saw. *)
let json_string_keys s =
  let pos = ref 0 in
  let fail msg = Alcotest.fail (Printf.sprintf "invalid JSON at %d: %s" !pos msg) in
  let peek () = if !pos < String.length s then Some s.[!pos] else None in
  let next () =
    match peek () with
    | Some c ->
      incr pos;
      c
    | None -> fail "unexpected end"
  in
  let expect c = if next () <> c then fail (Printf.sprintf "expected %c" c) in
  let keys = ref [] in
  let parse_string () =
    let b = Buffer.create 16 in
    let rec go () =
      match next () with
      | '"' -> Buffer.contents b
      | '\\' ->
        (match next () with
        | '"' -> Buffer.add_char b '"'
        | '\\' -> Buffer.add_char b '\\'
        | '/' -> Buffer.add_char b '/'
        | 'n' -> Buffer.add_char b '\n'
        | 'r' -> Buffer.add_char b '\r'
        | 't' -> Buffer.add_char b '\t'
        | 'b' -> Buffer.add_char b '\b'
        | 'f' -> Buffer.add_char b '\012'
        | 'u' -> (
          let hex = String.init 4 (fun _ -> next ()) in
          match int_of_string_opt ("0x" ^ hex) with
          | Some code when code < 256 -> Buffer.add_char b (Char.chr code)
          | Some _ -> fail "non-latin1 \\u escape"
          | None -> fail ("bad \\u escape " ^ hex))
        | c -> fail (Printf.sprintf "unknown escape \\%c" c));
        go ()
      | c when Char.code c < 32 -> fail "raw control character in string"
      | c ->
        Buffer.add_char b c;
        go ()
    in
    go ()
  in
  let parse_number () =
    let started = ref false in
    let rec go () =
      match peek () with
      | Some ('0' .. '9' | '-' | '.' | 'e' | 'E' | '+') ->
        started := true;
        incr pos;
        go ()
      | _ -> if not !started then fail "expected a number"
    in
    go ()
  in
  let rec parse_value () =
    match peek () with
    | Some '{' -> parse_object ()
    | Some '"' ->
      expect '"';
      ignore (parse_string () : string)
    | Some _ -> parse_number ()
    | None -> fail "unexpected end"
  and parse_object () =
    expect '{';
    if peek () = Some '}' then incr pos
    else
      let rec members () =
        expect '"';
        keys := parse_string () :: !keys;
        expect ':';
        parse_value ();
        match next () with
        | ',' -> members ()
        | '}' -> ()
        | _ -> fail "expected , or }"
      in
      members ()
  in
  parse_value ();
  (match peek () with
  | Some '\n' | None -> ()
  | Some _ -> fail "trailing garbage");
  List.rev !keys

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  n = 0 || go 0

let test_to_json_escapes_hostile_names () =
  let m = Metrics.create () in
  let hostile = "evil\"name\\with\nnew\tline\x01\x7f\xc3end" in
  Metrics.add (Metrics.counter m hostile) 3;
  Metrics.record (Metrics.gauge m "plain.gauge") 7;
  Metrics.observe (Metrics.histogram m "plain.hist") 9;
  let json = Metrics.to_json m in
  let keys = json_string_keys json in
  Alcotest.(check bool) "hostile name round trips through the escaper" true
    (List.mem hostile keys);
  Alcotest.(check bool) "plain names survive" true
    (List.mem "plain.gauge" keys && List.mem "plain.hist" keys);
  (* the old String.escaped path emitted \001 — decimal escapes no JSON
     parser accepts *)
  Alcotest.(check bool) "no \\ddd decimal escapes" false
    (contains ~affix:"\\001" json)

let suite =
  [
    checkpoint_frame_roundtrip;
    ("checker snapshot/restore round trip", `Quick, test_snapshot_restore_roundtrip);
    ( "snapshot with the older, wider window restores",
      `Quick,
      test_wide_window_snapshot_restores );
    ( "resume = offline at every checkpoint (correct)",
      `Quick,
      test_resume_equals_offline_correct );
    ( "resume = offline at every checkpoint (buggy)",
      `Quick,
      test_resume_equals_offline_buggy );
    ( "corrupt checkpoint never changes the verdict",
      `Quick,
      test_corrupt_checkpoint_never_changes_verdict );
    ( "farm checkpoint/restore = straight through",
      `Quick,
      test_farm_checkpoint_restore_equivalence );
    ( "farm checkpoint mid-batch = batch boundary",
      `Quick,
      test_farm_checkpoint_mid_batch );
    ( "resume_farm annotates, then resumes O(1)",
      `Quick,
      test_resume_farm_annotates_then_resumes );
    ( "metrics: lock released on kind mismatch",
      `Quick,
      test_metrics_lock_released_on_kind_mismatch );
    ( "metrics: to_json escapes hostile names",
      `Quick,
      test_to_json_escapes_hostile_names );
    ( "farm-checkpointed spool resumes one-shard",
      `Quick,
      test_farm_checkpointed_spool_resumes_one_shard );
    ( "legacy checker/1 frame replays in full",
      `Quick,
      test_legacy_checker_frame_replays_in_full );
  ]
