(* Golden wire and spool bytes.  The bytes a client sends, the bytes a
   server answers and the bytes a segment spool holds are a contract with
   every peer and every spool already on disk, so a codec change must leave
   them unmoved.  Each digest is the MD5 of the framed bytes of one case,
   recorded before the codec moved onto reusable writers and cursors; each
   case must also decode back to the values it was built from. *)

open Vyrd
open Vyrd_pipeline
open Vyrd_net
module Harness = Vyrd_harness.Harness
module Workload = Vyrd_harness.Workload

let md5 s = Digest.to_hex (Digest.string s)

(* The benchmark's service-io shape: a §7.1 program over the composite's
   three subjects, logged at [level]. *)
let composite_log ~level ~bug seed =
  Log.snapshot
    (Workload.log
       (Workload.v ~bug Workload.composite
          ~config:{ Harness.threads = 4; ops_per_thread = 40; key_pool = 8; key_range = 16;
                    seed; log_level = level }))

let long = String.init 40 (fun i -> Char.chr (97 + (i mod 26)))

let values =
  [ Repr.Unit; Repr.Bool true; Repr.Bool false; Repr.Int 0; Repr.Int (-1); Repr.Int 63;
    Repr.Int (-64); Repr.Int 300; Repr.Int min_int; Repr.Int max_int; Repr.Str "";
    Repr.Str "x"; Repr.Str long; Repr.Pair (Repr.Int (-7), Repr.Str long);
    Repr.List []; Repr.List [ Repr.Int 1 ];
    Repr.List [ Repr.Pair (Repr.Bool true, Repr.Unit); Repr.List [ Repr.Int min_int ];
                Repr.Str long ] ]

(* Every event tag, tids across varint widths, names on both sides of the
   decoder's 32-byte intern limit, and every value shape. *)
let synthetic =
  let tids = [ 0; 1; 127; 128; 1 lsl 40; max_int ] in
  List.concat_map
    (fun tid ->
      [ Event.Call { tid; mid = "insert"; args = values };
        Event.Call { tid; mid = long; args = [] };
        Event.Commit { tid };
        Event.Write { tid; var = "slot[3]"; value = Repr.List values };
        Event.Write { tid; var = long; value = Repr.Int min_int };
        Event.Block_begin { tid };
        Event.Block_end { tid };
        Event.Read { tid; var = "count" };
        Event.Acquire { tid; lock = "lock-" ^ long };
        Event.Release { tid; lock = "L" };
        Event.Return { tid; mid = "insert"; value = Repr.Pair (Repr.Bool true, Repr.List values) } ])
    tids
  |> Array.of_list

let chunks evs =
  let n = Array.length evs in
  List.init ((n + 255) / 256) (fun i -> Array.sub evs (i * 256) (min 256 (n - (i * 256))))

let exec : Report.exec =
  { Report.e_tid = 3; e_mid = "insert_pair"; e_args = [ Repr.Int 51; Repr.Int (-52) ];
    e_ret = Some (Repr.Bool true) }

let stats : Report.stats =
  { Report.events_processed = 5913; methods_checked = 2; commits_resolved = 1;
    per_method = [ ("insert", 1); ("insert_pair", 1) ]; queue_high_water = 508 }

let reports =
  let fail v = { Report.outcome = Report.Fail v; stats } in
  [ { Report.outcome = Report.Pass; stats };
    fail (Report.Io_violation { exec; commit_ordinal = 4; reason = "no transition" });
    fail (Report.Observer_violation { exec; window = (2, 7) });
    fail (Report.View_violation
            { exec; commit_ordinal = 1; view_i = Repr.List [ Repr.Int 26 ];
              view_s = Repr.List [ Repr.Str long ] });
    fail (Report.Invariant_violation { exec; commit_ordinal = 9; invariant = "sorted" });
    fail (Report.Ill_formed { event = Some (Event.Commit { tid = 2 }); reason = "commit w/o call" });
    fail (Report.Ill_formed { event = None; reason = "truncated log" }) ]

let client_msgs =
  [ Wire.Hello { h_version = Wire.version; h_level = `Io; h_producer = "perfbench" };
    Wire.Hello { h_version = Wire.version; h_level = `Full; h_producer = long };
    Wire.Heartbeat; Wire.Finish; Wire.Resume_session "/spool/vyrdc-000007.seg";
    Wire.Checkpoint_request; Wire.Drain; Wire.Status_request; Wire.Register "worker-1";
    Wire.Batch [||] ]

let server_msgs =
  [ Wire.Hello_ack { a_version = Wire.version; a_session = 300; a_credit = 8192; a_spilling = false };
    Wire.Hello_ack { a_version = Wire.version; a_session = 0; a_credit = 1; a_spilling = true };
    Wire.Credit 4096; Wire.Heartbeat_ack; Wire.Error "session idle timeout";
    Wire.Resume_ack { ra_events = 50_000; ra_resumed_at = Some 40_000; ra_replayed = 10_000 };
    Wire.Resume_ack { ra_events = 3; ra_resumed_at = None; ra_replayed = 3 };
    Wire.Checkpoint_state { cs_events = 97; cs_state = Some (Repr.List values) };
    Wire.Checkpoint_state { cs_events = 0; cs_state = None };
    Wire.Status { st_draining = true; st_active = 2; st_checking = 1; st_metrics = long } ]
  @ List.mapi
      (fun i r ->
        Wire.Verdict
          { v_report = r; v_fail_index = (if i mod 2 = 0 then Some (i * 1000) else None);
            v_events = 5913; v_spilled = (if i = 3 then Some "/tmp/spill.seg" else None) })
      reports

(* Concatenated frames, and the payloads read back from them. *)
let frames payloads = String.concat "" (List.map Wire.frame payloads)

let payloads_of bytes =
  let rec go pos acc =
    if pos = String.length bytes then List.rev acc
    else begin
      let len = Int32.to_int (String.get_int32_le bytes pos) in
      let crc = Int32.to_int (String.get_int32_le bytes (pos + 4)) land 0xffffffff in
      let payload = String.sub bytes (pos + 8) len in
      Alcotest.(check int) "frame CRC" crc (Bincodec.crc32 payload);
      go (pos + 8 + len) (payload :: acc)
    end
  in
  go 0 []

let same_events what a b =
  Alcotest.(check int) (what ^ ": event count") (Array.length a) (Array.length b);
  Array.iteri
    (fun i ev ->
      if not (Event.equal ev b.(i)) then Alcotest.failf "%s: event %d differs" what i)
    a

let batch_case name evs =
  let bytes () = frames (List.map (fun c -> Wire.encode_client (Wire.Batch c)) (chunks evs)) in
  let check bytes =
    let back =
      List.map
        (fun p ->
          match Wire.decode_client p with
          | Wire.Batch c -> c
          | _ -> Alcotest.failf "%s: a batch frame decoded to another message" name)
        (payloads_of bytes)
    in
    same_events name evs (Array.concat back)
  in
  (name, bytes, check)

let client_case =
  ( "client messages",
    (fun () -> frames (List.map Wire.encode_client client_msgs)),
    fun bytes ->
      List.iter2
        (fun m p ->
          let back = Wire.decode_client p in
          let same =
            match (m, back) with
            | Wire.Batch a, Wire.Batch b -> Array.length a = Array.length b
            | _ -> m = back
          in
          Alcotest.(check bool) "client message decodes back" true same)
        client_msgs (payloads_of bytes) )

let server_case =
  ( "server messages",
    (fun () -> frames (List.map Wire.encode_server server_msgs)),
    fun bytes ->
      List.iter2
        (fun m p ->
          Alcotest.(check bool) "server message decodes back" true (Wire.decode_server p = m))
        server_msgs (payloads_of bytes) )

(* A spool of several segments with a checkpoint frame between them. *)
let segment_events = lazy (Array.append (composite_log ~level:`Io ~bug:false 1) synthetic)
let segment_state = Repr.List [ Repr.Str "checker/1"; Repr.List values ]
let checkpoint_at = 300

let segment_case =
  let with_spool f =
    let path = Filename.temp_file "vyrd_golden" ".seg" in
    Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)
  in
  ( "segment spool",
    (fun () ->
      with_spool (fun path ->
          let evs = Lazy.force segment_events in
          let w = Segment.create_writer ~segment_bytes:700 ~level:`Full path in
          Array.iteri
            (fun i ev ->
              if i = checkpoint_at then Segment.append_checkpoint w segment_state;
              Segment.append w ev)
            evs;
          Segment.close w;
          In_channel.with_open_bin path In_channel.input_all)),
    fun bytes ->
      with_spool (fun path ->
          Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc bytes);
          let r = Segment.read path in
          Alcotest.(check bool) "spool is whole" false r.Segment.truncated;
          same_events "segment spool" (Lazy.force segment_events)
            (Log.snapshot r.Segment.log);
          match r.Segment.checkpoints with
          | [ ck ] ->
            Alcotest.(check int) "checkpoint position" checkpoint_at ck.Segment.ck_events;
            Alcotest.(check bool) "checkpoint state" true (ck.Segment.ck_state = segment_state)
          | cks -> Alcotest.failf "%d checkpoint frames read back" (List.length cks)) )

let cases =
  List.map
    (fun seed ->
      batch_case (Printf.sprintf "io batches seed=%d" seed)
        (composite_log ~level:`Io ~bug:(seed = 3) seed))
    [ 1; 2; 3 ]
  @ [ batch_case "full batches seed=4" (composite_log ~level:`Full ~bug:false 4);
      batch_case "all tags and value shapes" synthetic;
      client_case; server_case; segment_case ]

let expected =
  [
    ("io batches seed=1", "a4edab29f04eb106f4f33d780a86eaa7");
    ("io batches seed=2", "ce6926b0b727ffd4f3b07f8de800e69b");
    ("io batches seed=3", "80af6c0799e0a5a7a44a80ba2d28b0da");
    ("full batches seed=4", "703de3d6fc14878939e1ca95993d9ff0");
    ("all tags and value shapes", "5cb87ae1288e5df379e486f5767ac378");
    ("client messages", "026cc7123d2922a16abe2a746e1b53d2");
    ("server messages", "40ad89d266a9440b715541fe57e9a54a");
    ("segment spool", "39f7f3ed6d66ee4c66b0a94f93adb9ad");
  ]

let test_golden_frames () =
  List.iter
    (fun (name, bytes, check) ->
      let b = bytes () in
      (match List.assoc_opt name expected with
      | None -> Alcotest.failf "no golden digest for %s" name
      | Some want -> Alcotest.(check string) (name ^ ": bytes") want (md5 b));
      check b)
    cases

(* Minor and direct major-heap words per event of the one frame reader on
   golden bytes: [Segment.read] of the spool case and [Wire.recv] of the io
   batch stream (seed 1) over a socketpair, each after one warm-up pass so
   the intern table and the reused buffers are already full.  Counting
   allocation involves no timing. *)
let words_per_event events f =
  f ();
  let minor0 = Gc.minor_words () and _, promoted0, major0 = Gc.counters () in
  f ();
  let minor1 = Gc.minor_words () and _, promoted1, major1 = Gc.counters () in
  let per w = w /. float_of_int events in
  (* a buffer over 256 words goes straight to the major heap, where
     [Gc.minor_words] does not see it; [Gc.counters]' own minor figure lags
     until the next minor collection *)
  (per (minor1 -. minor0), per (major1 -. major0 -. (promoted1 -. promoted0)))

let spool_read_words () =
  let _, bytes, _ = segment_case in
  let path = Filename.temp_file "vyrd_golden" ".seg" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc (bytes ()));
  words_per_event (Array.length (Lazy.force segment_events)) (fun () ->
      ignore (Segment.read path : Segment.recovered))

let wire_recv_words () =
  let evs = composite_log ~level:`Io ~bug:false 1 in
  let framed = List.map (fun c -> Wire.frame (Wire.encode_client (Wire.Batch c))) (chunks evs) in
  let a, b = Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> Unix.close a; Unix.close b) @@ fun () ->
  let r = Wire.reader () in
  words_per_event (Array.length evs) (fun () ->
      List.iter
        (fun f ->
          ignore (Unix.write_substring a f 0 (String.length f) : int);
          match Wire.recv r b with
          | Wire.Events _ -> ()
          | Wire.Message _ -> Alcotest.fail "a batch frame came back as a message")
        framed)

(* Budgets: the figure measured on OCaml 5.1.1 (the spool read measured
   25.8 before it moved onto the shared reader), plus a slack of about a
   quarter for the other 5.x runtimes and stdlibs. *)
let reader_figures = lazy [ ("Segment.read", spool_read_words ()); ("Wire.recv", wire_recv_words ()) ]

let check_budgets heap budgets figure =
  List.iter2
    (fun (what, measured, slack) (what', figures) ->
      assert (String.equal what what');
      let words = figure figures in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %.2f %s words/event within %.1f + %.1f" what words heap
           measured slack)
        true
        (words <= measured +. slack))
    budgets (Lazy.force reader_figures)

let test_reader_allocation_budgets () =
  check_budgets "minor" [ ("Segment.read", 23.6, 6.0); ("Wire.recv", 14.2, 4.0) ] fst

(* Direct major-heap budgets of the same readers, measured on OCaml 5.1.1:
   a reader that allocated a fresh payload buffer per frame would spend
   about a word and a half per event here. *)
let test_reader_major_budgets () =
  check_budgets "direct major" [ ("Segment.read", 1.05, 0.5); ("Wire.recv", 0.0, 0.5) ] snd

let suite =
  [ Alcotest.test_case "wire frames and spool bytes match the golden digests" `Quick
      test_golden_frames;
    Alcotest.test_case "frame reader allocation budgets" `Quick
      test_reader_allocation_budgets;
    Alcotest.test_case "frame reader direct major-heap budgets" `Quick
      test_reader_major_budgets ]
