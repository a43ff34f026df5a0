(* The networked verification service: wire-protocol round trips (every
   message, every violation kind inside a verdict), framing corruption
   handling, and end-to-end loopback sessions against a live vyrdd server —
   verdict equality with the offline checker on the checked-in buggy
   example, overload spill with identical re-checked verdicts,
   retry-with-backoff connects, heartbeats vs the idle timeout, and a
   byte-sweep showing that truncating or corrupting a recorded session at
   any point fails that session cleanly (no verdict, server keeps serving). *)

open Vyrd
open Vyrd_harness
open Vyrd_pipeline
open Vyrd_net

let qcheck t = QCheck_alcotest.to_alcotest t

(* --- message codecs -------------------------------------------------------- *)

let exec : Report.exec =
  {
    Report.e_tid = 3;
    e_mid = "insert_pair";
    e_args = [ Repr.Int 51; Repr.Int 52 ];
    e_ret = Some Repr.success;
  }

let stats : Report.stats =
  {
    Report.events_processed = 19;
    methods_checked = 2;
    commits_resolved = 1;
    per_method = [ ("insert", 1); ("insert_pair", 1) ];
    queue_high_water = 508;
  }

(* one report per violation constructor, plus a pass *)
let sample_reports : Report.t list =
  let fail v = { Report.outcome = Report.Fail v; stats } in
  [
    { Report.outcome = Report.Pass; stats };
    fail (Report.Io_violation { exec; commit_ordinal = 4; reason = "no transition" });
    fail (Report.Observer_violation { exec; window = (2, 7) });
    fail
      (Report.View_violation
         {
           exec;
           commit_ordinal = 1;
           view_i = Repr.List [ Repr.Int 26 ];
           view_s = Repr.List [ Repr.Int 51 ];
         });
    fail
      (Report.Invariant_violation
         { exec; commit_ordinal = 9; invariant = "sorted" });
    fail
      (Report.Ill_formed
         { event = Some (Event.Commit { tid = 2 }); reason = "commit w/o call" });
    fail (Report.Ill_formed { event = None; reason = "truncated log" });
  ]

let test_report_roundtrip () =
  List.iter
    (fun r ->
      let b = Bincodec.writer () in
      Wire.put_report b r;
      let c = Bincodec.cursor (Bincodec.contents b) in
      let r' = Wire.read_report c in
      Alcotest.(check bool) (Report.tag r ^ " report survives") true (r = r');
      Alcotest.(check int) "whole buffer consumed" 0 (Bincodec.remaining c))
    sample_reports

let test_server_msg_roundtrip () =
  let msgs =
    [
      Wire.Hello_ack { a_version = 1; a_session = 42; a_credit = 8192; a_spilling = true };
      Wire.Credit 4096;
      Wire.Heartbeat_ack;
      Wire.Error "session idle timeout";
    ]
    @ List.map
        (fun r ->
          Wire.Verdict
            {
              Wire.v_report = r;
              v_fail_index = (if Report.is_pass r then None else Some 18);
              v_events = 508;
              v_spilled = (if Report.is_pass r then Some "/tmp/spill.seg" else None);
            })
        sample_reports
  in
  List.iter
    (fun m ->
      Alcotest.(check bool) "server msg survives" true
        (Wire.decode_server (Wire.encode_server m) = m))
    msgs

let client_msg_eq a b =
  match (a, b) with
  | Wire.Batch x, Wire.Batch y ->
    Array.length x = Array.length y
    && Array.for_all2 Event.equal x y
  | x, y -> x = y

let client_roundtrip =
  qcheck
    (QCheck2.Test.make ~name:"client msg round trip" ~count:200
       QCheck2.Gen.(
         oneof
           [
             return Wire.Heartbeat;
             return Wire.Finish;
             map
               (fun (lvl, producer) ->
                 Wire.Hello { h_version = Wire.version; h_level = lvl; h_producer = producer })
               (pair Test_log.level_gen (string_size (int_range 0 40)));
             map
               (fun evs -> Wire.Batch (Array.of_list evs))
               (list_size (int_range 0 60) Test_log.event_gen);
           ])
       (fun m -> client_msg_eq m (Wire.decode_client (Wire.encode_client m))))

let test_decode_rejects_garbage () =
  (* unknown tag, empty payload, trailing bytes after a valid message *)
  List.iter
    (fun payload ->
      match Wire.decode_client payload with
      | _ -> Alcotest.failf "decoded garbage client payload %S" payload
      | exception Bincodec.Corrupt _ -> ())
    [ ""; "\009"; Wire.encode_client Wire.Finish ^ "x" ];
  List.iter
    (fun payload ->
      match Wire.decode_server payload with
      | _ -> Alcotest.failf "decoded garbage server payload %S" payload
      | exception Bincodec.Corrupt _ -> ())
    [ ""; "\009"; Wire.encode_server Wire.Heartbeat_ack ^ "x" ]

(* --- framing over a socketpair -------------------------------------------- *)

let with_socketpair f =
  let a, b = Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close a with Unix.Unix_error _ -> ());
      try Unix.close b with Unix.Unix_error _ -> ())
    (fun () -> f a b)

let test_frame_roundtrip_and_corruption () =
  let payload = Wire.encode_client (Wire.Hello
      { h_version = Wire.version; h_level = `View; h_producer = "t" }) in
  with_socketpair (fun a b ->
      let framed = Wire.frame payload in
      ignore (Unix.write_substring a framed 0 (String.length framed));
      Alcotest.(check string) "frame round trip" payload (Wire.read_frame b));
  (* one flipped payload byte must be caught by the CRC *)
  with_socketpair (fun a b ->
      let bytes = Bytes.of_string (Wire.frame payload) in
      let at = Bytes.length bytes - 1 in
      Bytes.set bytes at (Char.chr (Char.code (Bytes.get bytes at) lxor 0x01));
      ignore (Unix.write a bytes 0 (Bytes.length bytes));
      Unix.shutdown a Unix.SHUTDOWN_SEND;
      match Wire.read_frame b with
      | _ -> Alcotest.fail "corrupt frame accepted"
      | exception Bincodec.Corrupt _ -> ());
  (* clean EOF at a frame boundary is Closed, mid-frame is Corrupt *)
  with_socketpair (fun a b ->
      Unix.shutdown a Unix.SHUTDOWN_SEND;
      match Wire.read_frame b with
      | _ -> Alcotest.fail "read from closed stream"
      | exception Wire.Closed -> ());
  with_socketpair (fun a b ->
      let framed = Wire.frame payload in
      ignore (Unix.write_substring a framed 0 (String.length framed / 2));
      Unix.shutdown a Unix.SHUTDOWN_SEND;
      match Wire.read_frame b with
      | _ -> Alcotest.fail "torn frame accepted"
      | exception Bincodec.Corrupt _ -> ())

let test_addr_of_string () =
  Alcotest.(check bool) "host:port is tcp" true
    (Wire.addr_of_string "127.0.0.1:9090" = Wire.Tcp ("127.0.0.1", 9090));
  Alcotest.(check bool) "path is unix" true
    (Wire.addr_of_string "/tmp/vyrdd.sock" = Wire.Unix_socket "/tmp/vyrdd.sock");
  Alcotest.(check bool) "non-numeric port is a path" true
    (Wire.addr_of_string "host:http" = Wire.Unix_socket "host:http")

(* --- loopback sessions ----------------------------------------------------- *)

(* cwd is _build/default/test under [dune runtest], the repo root under
   [dune exec] *)
let examples_dir () =
  List.find Sys.file_exists [ "examples/logs"; "../../../examples/logs" ]

let subject = Subjects.multiset_vector

let shards _level =
  [ Farm.shard ~mode:`View ~view:subject.Subjects.view subject.Subjects.name
      subject.Subjects.spec ]

let with_server ?window ?max_sessions ?spill_dir ?idle_timeout ?recheck_spills
    ?metrics f =
  let sock = Filename.temp_file "vyrd_net" ".sock" in
  let srv =
    Server.start
      (Server.config ?window ?max_sessions ?spill_dir ?idle_timeout
         ?recheck_spills ?metrics ~addr:(Wire.Unix_socket sock) shards)
  in
  Fun.protect
    ~finally:(fun () ->
      Server.stop ~deadline:5. srv;
      if Sys.file_exists sock then Sys.remove sock)
    (fun () -> f srv)

(* Session threads tear down asynchronously after the verdict: wait (up to
   5 s) until [active ()] reaches 0. *)
let quiesce active =
  let deadline = Unix.gettimeofday () +. 5. in
  while active () > 0 && Unix.gettimeofday () < deadline do
    Thread.delay 0.02
  done

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path

(* The same service behind either daemon: a vyrdd server, or a vyrdc
   coordinator fronting one supervised vyrdd worker.  [f] gets the address,
   the count of data sessions still open anywhere behind it, and the
   daemon's own metrics registry. *)
let with_daemon ?idle_timeout daemon f =
  match daemon with
  | `Vyrdd ->
    with_server ?idle_timeout (fun srv ->
        f (Server.addr srv) (fun () -> Server.active srv) (Server.metrics srv))
  | `Vyrdc ->
    let open Vyrd_cluster in
    let dir = Filename.temp_file "vyrd_vyrdc" "" in
    Sys.remove dir;
    Unix.mkdir dir 0o700;
    let sup = Supervisor.start ~count:1 ~dir ~shards () in
    let coord =
      Coordinator.start
        (Coordinator.config ?idle_timeout
           ~addr:(Wire.Unix_socket (Filename.concat dir "vyrdc.sock"))
           ~spool_dir:(Filename.concat dir "spool") ())
    in
    List.iter
      (fun (name, addr) -> Coordinator.attach coord ~name ~addr)
      (Supervisor.workers sup);
    let active () =
      List.fold_left
        (fun n (name, _) ->
          match Supervisor.server sup name with
          | Some w -> n + Server.active w
          | None -> n)
        (Coordinator.active coord) (Supervisor.workers sup)
    in
    Fun.protect
      ~finally:(fun () ->
        Coordinator.stop ~deadline:5. coord;
        Supervisor.stop sup;
        rm_rf dir)
      (fun () -> f (Coordinator.addr coord) active (Coordinator.metrics coord))

let buggy_log () =
  Log.of_file (Filename.concat (examples_dir ()) "multiset_vector_buggy.log")

let correct_log () =
  Harness.run
    { Harness.default with threads = 4; ops_per_thread = 25; log_level = `View }
    (subject.Subjects.build ~bug:false)

let local_fail_index log =
  let farm = Farm.start ~capacity:4096 ~level:(Log.level log) (shards `View) in
  Log.iter (Farm.feed farm) log;
  let r = Farm.finish farm in
  List.fold_left
    (fun acc (sr : Farm.shard_result) ->
      match (acc, sr.Farm.sr_fail_index) with
      | None, i -> i
      | Some a, Some b -> Some (min a b)
      | Some _, None -> acc)
    None r.Farm.shards

let test_loopback_matches_offline () =
  let log = buggy_log () in
  let offline =
    Checker.check ~mode:`View ~view:subject.Subjects.view log subject.Subjects.spec
  in
  Alcotest.(check bool) "example log is convicting" false (Report.is_pass offline);
  with_server (fun srv ->
      match Client.submit_log ~batch_events:64 (Server.addr srv) log with
      | Client.Spilled _ -> Alcotest.fail "unloaded server spilled"
      | Client.Checked { report; fail_index } ->
        Alcotest.(check string) "same violation kind as offline"
          (Report.tag offline) (Report.tag report);
        Alcotest.(check (option int)) "same fail index as the local farm"
          (local_fail_index log) fail_index)

let test_loopback_correct_run_passes () =
  let log = correct_log () in
  with_server (fun srv ->
      let t = Client.connect ~level:(Log.level log) ~batch_events:32 (Server.addr srv) in
      Log.iter (Client.send t) log;
      Alcotest.(check bool) "not spilling" false (Client.spilling t);
      match Client.finish t with
      | Client.Spilled _ -> Alcotest.fail "unloaded server spilled"
      | Client.Checked { report; fail_index } ->
        Alcotest.(check bool) "passes" true (Report.is_pass report);
        Alcotest.(check (option int)) "no fail index" None fail_index;
        Alcotest.(check int) "every event was sent" (Log.length log)
          (Client.events_sent t);
        Alcotest.(check bool) "framing was accounted" true (Client.bytes_sent t > 0))

let test_serve_analyze_runs_passes () =
  (* a server started with analysis on gives each session its own pass
     instances; their results land in the shared metrics registry *)
  let metrics = Metrics.create () in
  let sock = Filename.temp_file "vyrd_net" ".sock" in
  let srv =
    Server.start
      (Server.config ~analyze:true ~metrics ~addr:(Wire.Unix_socket sock) shards)
  in
  Fun.protect
    ~finally:(fun () ->
      Server.stop ~deadline:5. srv;
      if Sys.file_exists sock then Sys.remove sock)
    (fun () ->
      let log =
        Harness.run
          { Harness.default with threads = 4; ops_per_thread = 25; log_level = `Full }
          (subject.Subjects.build ~bug:false)
      in
      match Client.submit_log ~batch_events:64 (Server.addr srv) log with
      | Client.Spilled _ -> Alcotest.fail "unloaded server spilled"
      | Client.Checked { report; _ } ->
        Alcotest.(check bool) "refinement passes" true (Report.is_pass report);
        Alcotest.(check int) "all three passes ran at `Full" 3
          (Metrics.gauge_value (Metrics.gauge metrics "analysis.passes"));
        Alcotest.(check int) "analysis lane saw every event" (Log.length log)
          (Metrics.value (Metrics.counter metrics "analysis.events"));
        Alcotest.(check int) "no analysis errors on a correct run" 0
          (Metrics.value (Metrics.counter metrics "analysis.errors")))

let test_overload_spills_and_recheck_agrees () =
  let log = buggy_log () in
  let offline =
    Checker.check ~mode:`View ~view:subject.Subjects.view log subject.Subjects.spec
  in
  let dir = Filename.temp_file "vyrd_spill" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () ->
      (* max_sessions 0: every session degrades to the segment spool *)
      with_server ~max_sessions:0 ~spill_dir:dir (fun srv ->
          match Client.submit_log (Server.addr srv) log with
          | Client.Checked _ -> Alcotest.fail "overloaded server checked live"
          | Client.Spilled { path; events } ->
            Alcotest.(check int) "spool holds the whole stream" (Log.length log)
              events;
            let r = Segment.read path in
            Alcotest.(check bool) "spool reads clean" false r.Segment.truncated;
            Alcotest.(check int) "spool event count" (Log.length log)
              (Log.length r.Segment.log);
            let rechecked =
              Checker.check ~mode:`View ~view:subject.Subjects.view r.Segment.log
                subject.Subjects.spec
            in
            Alcotest.(check string) "re-checked verdict is identical"
              (Report.tag offline) (Report.tag rechecked)))

let test_connect_retries_until_server_appears () =
  let sock = Filename.temp_file "vyrd_late" ".sock" in
  Sys.remove sock;
  let srv = ref None in
  let starter =
    Thread.create
      (fun () ->
        Thread.delay 0.3;
        srv := Some (Server.start (Server.config ~addr:(Wire.Unix_socket sock) shards)))
      ()
  in
  Fun.protect
    ~finally:(fun () ->
      Thread.join starter;
      (match !srv with Some s -> Server.stop ~deadline:5. s | None -> ());
      if Sys.file_exists sock then Sys.remove sock)
    (fun () ->
      (* the socket does not exist yet: only retry-with-backoff can win *)
      let t = Client.connect ~retries:10 ~backoff:0.05 (Wire.Unix_socket sock) in
      Alcotest.(check bool) "session granted" true (Client.session t >= 0);
      Client.close t)

let test_no_retry_fails_fast () =
  let sock = Filename.temp_file "vyrd_none" ".sock" in
  Sys.remove sock;
  match Client.connect (Wire.Unix_socket sock) with
  | _ -> Alcotest.fail "connected to nothing"
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let test_backoff_is_capped_and_jittered () =
  let sock = Filename.temp_file "vyrd_capped" ".sock" in
  Sys.remove sock;
  (* 4 retries at base 1.0s would sleep ~15s on the uncapped exponential
     curve; with the 0.02s cap (±25% jitter from the seeded Prng) the whole
     dial has to fail in a fraction of a second *)
  let t0 = Unix.gettimeofday () in
  (match
     Client.connect ~retries:4 ~backoff:1.0 ~max_backoff:0.02 ~jitter_seed:42
       (Wire.Unix_socket sock)
   with
  | _ -> Alcotest.fail "connected to nothing"
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ());
  let dt = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool)
    (Printf.sprintf "4 capped retries took %.3fs, not seconds" dt)
    true (dt < 1.0)

let test_heartbeat_survives_idle_timeout () =
  let log = correct_log () in
  with_server ~idle_timeout:0.4 (fun srv ->
      let t = Client.connect ~level:(Log.level log) (Server.addr srv) in
      (* stay idle for ~3 timeouts, heartbeating through them *)
      for _ = 1 to 6 do
        Thread.delay 0.2;
        Client.heartbeat t
      done;
      Log.iter (Client.send t) log;
      match Client.finish t with
      | Client.Checked { report; _ } ->
        Alcotest.(check bool) "still verdicts after idling" true
          (Report.is_pass report)
      | Client.Spilled _ -> Alcotest.fail "unloaded server spilled")

let test_idle_timeout_fails_session_cleanly daemon () =
  with_daemon ~idle_timeout:0.3 daemon (fun addr _ _ ->
      let t = Client.connect addr in
      Thread.delay 1.0;
      (match Client.finish t with
      | _ -> Alcotest.fail "timed-out session still produced a verdict"
      | exception Client.Server_error _ -> ());
      (* the failure was contained: the same server still serves *)
      match Client.submit_log addr (correct_log ()) with
      | Client.Checked { report; _ } ->
        Alcotest.(check bool) "server survived the timeout" true
          (Report.is_pass report)
      | Client.Spilled _ -> Alcotest.fail "unloaded server spilled")

(* --- byte sweep over a recorded session ------------------------------------ *)

(* A valid session, as raw bytes. *)
let session_bytes log =
  let evs = Log.snapshot log in
  (* a large batch first, so the session's read buffer grows and the smaller
     frames after it land on leftover bytes *)
  let batch pos len = Wire.frame (Wire.encode_client (Wire.Batch (Array.sub evs pos len))) in
  String.concat ""
    [
      Wire.frame
        (Wire.encode_client
           (Wire.Hello
              { h_version = Wire.version; h_level = Log.level log; h_producer = "sweep" }));
      batch 0 30;
      batch 30 6;
      batch 36 4;
      Wire.frame (Wire.encode_client Wire.Finish);
    ]

(* Push raw bytes at the server, close our write side, and collect every
   server reply until it hangs up.  Returns [true] iff a complete, decodable
   verdict frame came back. *)
let raw_session srv bytes =
  let sockaddr = Wire.sockaddr_of_addr (Server.addr srv) in
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd sockaddr;
      (match Unix.write_substring fd bytes 0 (String.length bytes) with
      | (_ : int) -> ()
      | exception Unix.Unix_error (Unix.EPIPE, _, _) ->
        (* the server already failed the session and hung up *)
        ());
      (try Unix.shutdown fd Unix.SHUTDOWN_SEND with Unix.Unix_error _ -> ());
      let saw_verdict = ref false in
      let continue = ref true in
      while !continue do
        match Wire.recv_server fd with
        | Wire.Verdict _ -> saw_verdict := true
        | _ -> ()
        | exception (Wire.Closed | Bincodec.Corrupt _ | Unix.Unix_error _) ->
          continue := false
      done;
      !saw_verdict)

let test_session_byte_sweep () =
  let log = correct_log () in
  let whole = session_bytes log in
  let len = String.length whole in
  with_server (fun srv ->
      Alcotest.(check bool) "the untouched session verdicts" true
        (raw_session srv whole);
      (* truncation at every prefix length and a single-byte corruption at a
         stride of positions: the session must fail cleanly — no verdict —
         and the server must keep serving *)
      let cuts = ref 0 in
      for cut = 0 to len - 1 do
        if cut mod 17 = 0 then begin
          incr cuts;
          if raw_session srv (String.sub whole 0 cut) then
            Alcotest.failf "verdict from a session truncated at %d/%d" cut len
        end
      done;
      for at = 0 to len - 1 do
        if at mod 13 = 0 then begin
          incr cuts;
          let bytes = Bytes.of_string whole in
          Bytes.set bytes at (Char.chr (Char.code (Bytes.get bytes at) lxor 0xa5));
          if raw_session srv (Bytes.to_string bytes) then
            Alcotest.failf "verdict from a session corrupted at byte %d/%d" at len
        end
      done;
      Alcotest.(check bool) "sweep exercised many cut points" true (!cuts > 30);
      Alcotest.(check bool) "server still verdicts after the sweep" true
        (raw_session srv whole);
      Alcotest.(check bool) "failed sessions were counted" true
        (Metrics.value (Metrics.counter (Server.metrics srv) "net.sessions_failed")
        >= !cuts))

(* --- the reusable read buffer and writer ------------------------------------ *)

(* [n] two-byte events (tag, tid < 128), so payloads line up byte for byte *)
let commits n = Array.init n (fun i -> Event.Commit { tid = 1 + (i mod 3) })

(* A Batch payload that claims [count] events but carries [evs]. *)
let batch_payload ~count evs =
  let b = Bincodec.writer () in
  Bincodec.put_char b '\001';
  Bincodec.put_uvarint b count;
  Array.iter (Bincodec.put_event b) evs;
  Bincodec.contents b

(* Send [bytes] and hang up, then read from the other end with [r]. *)
let recv_all r bytes f =
  with_socketpair (fun a b ->
      ignore (Unix.write_substring a bytes 0 (String.length bytes));
      Unix.shutdown a Unix.SHUTDOWN_SEND;
      f (fun () -> Wire.recv r b))

let expect_events what want = function
  | Wire.Events (evs, n) ->
    Alcotest.(check int) (what ^ ": count") (Array.length want) n;
    Array.iteri
      (fun i ev ->
        if not (Event.equal ev evs.(i)) then Alcotest.failf "%s: event %d differs" what i)
      want
  | Wire.Message _ -> Alcotest.failf "%s: expected a batch" what

let expect_corrupt what recv =
  match recv () with
  | Wire.Events (_, n) -> Alcotest.failf "%s yielded %d events" what n
  | Wire.Message _ -> Alcotest.failf "%s yielded a message" what
  | exception Bincodec.Corrupt _ -> ()

let test_reused_read_buffer () =
  let r = Wire.reader () in
  let mixed = Array.sub (Log.snapshot (correct_log ())) 0 300 in
  let small = Array.sub mixed 17 10 in
  (* a large batch grows the buffer; the smaller frames after it decode to
     exactly their own events *)
  recv_all r
    (String.concat ""
       (List.map Wire.frame
          [ Wire.encode_client (Wire.Batch mixed); Wire.encode_client (Wire.Batch small);
            Wire.encode_client Wire.Finish ]))
    (fun recv ->
      expect_events "large batch" mixed (recv ());
      expect_events "smaller batch after it" small (recv ());
      match recv () with
      | Wire.Message Wire.Finish -> ()
      | _ -> Alcotest.fail "finish after the batches");
  (* [filler] leaves 100 commits in the buffer at the offsets a lying frame
     would read next, had the decoder looked past its own payload *)
  let filler = Wire.frame (batch_payload ~count:100 (commits 100)) in
  let after_filler what frame =
    recv_all r (filler ^ frame) (fun recv ->
        expect_events "filler" (commits 100) (recv ());
        expect_corrupt what recv)
  in
  after_filler "count beyond the payload's events"
    (Wire.frame (batch_payload ~count:60 (commits 50)));
  after_filler "count beyond the payload's bytes"
    (Wire.frame (batch_payload ~count:150 (commits 50)));
  let whole = batch_payload ~count:50 (commits 50) in
  for cut = 0 to String.length whole - 1 do
    after_filler
      (Printf.sprintf "payload cut at %d" cut)
      (Wire.frame (String.sub whole 0 cut))
  done;
  let framed = Wire.frame whole in
  for cut = 1 to String.length framed - 1 do
    after_filler (Printf.sprintf "frame torn at %d" cut) (String.sub framed 0 cut)
  done;
  recv_all r filler (fun recv ->
      expect_events "filler" (commits 100) (recv ());
      match recv () with
      | _ -> Alcotest.fail "read past a clean end of stream"
      | exception Wire.Closed -> ())

let test_writer_frames_match () =
  let evs = Log.snapshot (correct_log ()) in
  let w = Bincodec.writer ~size:16 () in
  List.iter
    (fun (pos, len) ->
      let want = Wire.frame (Wire.encode_client (Wire.Batch (Array.sub evs pos len))) in
      with_socketpair (fun a b ->
          let n = Wire.write_batch w a evs ~pos ~len in
          Alcotest.(check int) "frame size" (String.length want) n;
          let got = Bytes.create n in
          let rec fill off =
            if off < n then fill (off + Unix.read b got off (n - off))
          in
          fill 0;
          Alcotest.(check string)
            (Printf.sprintf "write_batch pos=%d len=%d" pos len)
            want (Bytes.to_string got)))
    [ (0, 256); (5, 3); (0, 0); (100, 1); (1, 255) ];
  match Wire.write_batch w Unix.stdout evs ~pos:1 ~len:(Array.length evs) with
  | _ -> Alcotest.fail "write_batch accepted a slice past the end"
  | exception Invalid_argument _ -> ()

(* The server can only ever grant [window] credit in total, so a client batch
   larger than the window must be clamped at connect time or flush would wait
   for credit that cannot arrive. *)
let test_oversized_batch_clamped_to_window () =
  let log = correct_log () in
  with_server ~window:8 (fun srv ->
      let t =
        Client.connect ~level:(Log.level log) ~batch_events:1024 (Server.addr srv)
      in
      Log.iter (Client.send t) log;
      match Client.finish t with
      | Client.Checked { report; _ } ->
        Alcotest.(check bool) "oversized batch still verdicts" true
          (Report.is_pass report);
        Alcotest.(check int) "every event was sent" (Log.length log)
          (Client.events_sent t)
      | Client.Spilled _ -> Alcotest.fail "unloaded server spilled")

(* A CRC-valid frame whose payload smuggles a near-max_int string length must
   fail only that session — and release its checking slot.  With max_sessions
   1, a pinned slot would force the follow-up submit into the spill path. *)
let test_hostile_length_frame_releases_slot () =
  let hostile =
    let b = Bincodec.writer () in
    Bincodec.put_char b '\001' (* Batch *);
    Bincodec.put_uvarint b 1;
    Bincodec.put_char b '\000' (* Call *);
    Bincodec.put_uvarint b 0 (* tid *);
    Bincodec.put_uvarint b max_int (* method-name length *);
    String.concat ""
      [
        Wire.frame
          (Wire.encode_client
             (Wire.Hello
                { h_version = Wire.version; h_level = `View; h_producer = "evil" }));
        Wire.frame (Bincodec.contents b);
      ]
  in
  with_server ~max_sessions:1 (fun srv ->
      for _ = 1 to 3 do
        if raw_session srv hostile then
          Alcotest.fail "hostile length frame produced a verdict"
      done;
      quiesce (fun () -> Server.active srv);
      Alcotest.(check int) "no session left pinned" 0 (Server.active srv);
      match Client.submit_log (Server.addr srv) (correct_log ()) with
      | Client.Checked { report; _ } ->
        Alcotest.(check bool) "slot was released for live checking" true
          (Report.is_pass report)
      | Client.Spilled _ -> Alcotest.fail "checking slot still pinned: spilled")

(* --- fd hygiene ------------------------------------------------------------ *)

let count_fds () = Array.length (Sys.readdir "/proc/self/fd")

let test_corrupt_reader_does_not_leak_fds () =
  (* a segment file whose payload passes its CRC but lies about its event
     count: [Segment.read] must raise Corrupt from inside the decode, and the
     file descriptor must still be released *)
  let path = Filename.temp_file "vyrd_leak" ".seg" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let payload =
        let b = Bincodec.writer () in
        Bincodec.put_event b (Event.Commit { tid = 1 });
        Bincodec.put_event b (Event.Commit { tid = 2 });
        Bincodec.contents b
      in
      let head = Bytes.create 12 in
      Bytes.set_int32_le head 0 (Int32.of_int (String.length payload));
      Bytes.set_int32_le head 4 (Int32.of_int (Bincodec.crc32 payload));
      Bytes.set_int32_le head 8 3l (* declares 3 events, contains 2 *);
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc "VYRDB1";
          Out_channel.output_char oc '\002';
          Out_channel.output_bytes oc head;
          Out_channel.output_string oc payload);
      let before = count_fds () in
      for _ = 1 to 10 do
        match Segment.read path with
        | _ -> Alcotest.fail "lying segment accepted"
        | exception Bincodec.Corrupt _ -> ()
      done;
      Alcotest.(check int) "no fd leaked across 10 corrupt reads" before
        (count_fds ()))

let test_loopback_sessions_do_not_leak_fds daemon () =
  with_daemon daemon (fun addr active _ ->
      (* both fd counts must be sampled with the daemon quiescent *)
      let log = correct_log () in
      ignore (Client.submit_log addr log : Client.outcome);
      quiesce active;
      let before = count_fds () in
      for _ = 1 to 5 do
        ignore (Client.submit_log addr log : Client.outcome)
      done;
      quiesce active;
      Alcotest.(check int) "no fd leaked across 5 sessions" before (count_fds ()))

(* --- the shared listener ---------------------------------------------------- *)

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec at i = i + nl <= hl && (String.sub hay i nl = needle || at (i + 1)) in
  at 0

let quiet_status () =
  { Wire.st_draining = false; st_active = 0; st_checking = 0; st_metrics = "" }

(* a sink that drops its events and passes *)
let quiet_sink =
  {
    Listener.spilling = false;
    batch = (fun _ _ -> ());
    heartbeat = ignore;
    checkpoint = (fun () -> None);
    resume = None;
    finish =
      (fun ~events ->
        {
          Wire.v_report = { Report.outcome = Report.Pass; stats };
          v_fail_index = None;
          v_events = events;
          v_spilled = None;
        });
    close = (fun () -> ignore);
  }

let with_listener ?(idle_timeout = 30.) ?(status = quiet_status) data f =
  let sock = Filename.temp_file "vyrd_listener" ".sock" in
  let metrics = Metrics.create () in
  let l =
    Listener.bind ~family:"test" ~metrics ~idle_timeout ~window:64 (Wire.Unix_socket sock)
  in
  Listener.serve l { Listener.data; status; control = (fun _ -> false) };
  Fun.protect
    ~finally:(fun () ->
      Listener.stop ~deadline:5. l;
      if Sys.file_exists sock then Sys.remove sock)
    (fun () -> f l (Metrics.counter metrics "test.sessions_failed"))

(* Connect to [l], run [f fd], and close. *)
let with_conn l f =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (Wire.sockaddr_of_addr (Listener.addr l));
      f fd)

let send_hello fd =
  Wire.send_client fd
    (Wire.Hello { h_version = Wire.version; h_level = `View; h_producer = "listener" })

(* every server message until the listener hangs up *)
let replies fd =
  let rec loop acc =
    match Wire.recv_server fd with
    | m -> loop (m :: acc)
    | exception (Wire.Closed | Unix.Unix_error _) -> List.rev acc
  in
  loop []

let test_listener_data_timeouts () =
  let seen = ref None in
  with_listener ~idle_timeout:0.5
    (fun s _ ->
      seen :=
        Some
          ( Unix.getsockopt_float s.Listener.fd Unix.SO_RCVTIMEO,
            Unix.getsockopt_float s.Listener.fd Unix.SO_SNDTIMEO );
      quiet_sink)
    (fun l _ ->
      with_conn l (fun fd ->
          send_hello fd;
          Wire.send_client fd Wire.Finish;
          ignore (replies fd : Wire.server_msg list));
      match !seen with
      | None -> Alcotest.fail "the data handler never ran"
      | Some (rcv, snd) ->
        Alcotest.(check (float 0.01)) "SO_RCVTIMEO is the idle timeout" 0.5 rcv;
        Alcotest.(check (float 0.01)) "SO_SNDTIMEO is the idle timeout" 0.5 snd)

let test_listener_control_untimed () =
  (* an idle timeout far below the pauses here, and replies large enough
     that a peer which stops reading blocks the listener's writes: a control
     connection outlasts both *)
  let big = String.make 65536 'x' in
  with_listener ~idle_timeout:0.2
    ~status:(fun () -> { (quiet_status ()) with Wire.st_metrics = big })
    (fun _ _ -> quiet_sink)
    (fun l failed ->
      with_conn l (fun fd ->
          let polled () =
            match Wire.recv_server fd with
            | Wire.Status st -> String.length st.Wire.st_metrics = String.length big
            | _ -> false
          in
          Wire.send_client fd Wire.Status_request;
          Alcotest.(check bool) "status answered" true (polled ());
          Alcotest.(check int) "a control connection is not active" 0
            (Listener.active l);
          Thread.delay 0.5;
          for _ = 1 to 20 do
            Wire.send_client fd Wire.Status_request
          done;
          (* a write that makes partial progress restarts its timeout, so
             stay blocked for several of them *)
          Thread.delay 1.0;
          for i = 1 to 20 do
            if not (polled ()) then Alcotest.failf "poll %d went unanswered" i
          done;
          Wire.send_client fd Wire.Finish;
          Alcotest.(check int) "Finish closes it cleanly" 0 (List.length (replies fd)));
      Alcotest.(check int) "nothing failed" 0 (Metrics.value failed))

let test_listener_contains_handler_failure () =
  with_listener (fun _ _ -> failwith "handler blew up") (fun l failed ->
      let before = count_fds () in
      let got =
        with_conn l (fun fd ->
            send_hello fd;
            replies fd)
      in
      (match got with
      | [ Wire.Error _ ] -> ()
      | _ -> Alcotest.failf "expected exactly one Error, got %d replies" (List.length got));
      Alcotest.(check int) "counted once" 1 (Metrics.value failed);
      quiesce (fun () -> Listener.active l);
      Alcotest.(check int) "session freed" 0 (Listener.active l);
      Alcotest.(check int) "fd closed" before (count_fds ()))

let test_daemons_register_listener_metrics () =
  List.iter
    (fun (daemon, family) ->
      with_daemon daemon (fun _ _ metrics ->
          let json = Metrics.to_json metrics in
          List.iter
            (fun name ->
              let name = family ^ "." ^ name in
              Alcotest.(check bool) (name ^ " registered") true
                (contains json ("\"" ^ name ^ "\":")))
            [ "sessions"; "sessions_failed"; "accept_errors"; "sessions_peak" ]))
    [ (`Vyrdd, "net"); (`Vyrdc, "cluster") ]

(* --- cluster protocol messages --------------------------------------------- *)

let test_cluster_msg_roundtrip () =
  List.iter
    (fun m ->
      Alcotest.(check bool) "cluster client msg survives" true
        (Wire.decode_client (Wire.encode_client m) = m))
    [
      Wire.Resume_session "/tmp/spool-000042.seg";
      Wire.Checkpoint_request;
      Wire.Drain;
      Wire.Status_request;
      Wire.Register "w3";
    ];
  List.iter
    (fun m ->
      Alcotest.(check bool) "cluster server msg survives" true
        (Wire.decode_server (Wire.encode_server m) = m))
    [
      Wire.Resume_ack
        { ra_events = 12345; ra_resumed_at = Some 9000; ra_replayed = 3345 };
      Wire.Resume_ack { ra_events = 7; ra_resumed_at = None; ra_replayed = 7 };
      Wire.Checkpoint_state
        {
          cs_events = 512;
          cs_state = Some (Repr.List [ Repr.Int 1; Repr.success ]);
        };
      Wire.Checkpoint_state { cs_events = 0; cs_state = None };
      Wire.Status
        {
          st_draining = true;
          st_active = 3;
          st_checking = 2;
          st_metrics = Metrics.encode (Metrics.create ());
        };
      Wire.Status
        { st_draining = false; st_active = 0; st_checking = 0; st_metrics = "" };
    ]

(* --- spill reclaim --------------------------------------------------------- *)

let test_spill_reclaimed_after_recheck () =
  (* a clean spilled session whose opportunistic re-check verifies the spool
     end to end gets its disk back, and net.spill_reclaimed counts it *)
  let log = correct_log () in
  let dir = Filename.temp_file "vyrd_reclaim" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let metrics = Metrics.create () in
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () ->
      with_server ~max_sessions:1 ~spill_dir:dir ~recheck_spills:true ~metrics
        (fun srv ->
          (* [holder] pins the only checking slot, so [b] spills *)
          let holder = Client.connect (Server.addr srv) in
          let b = Client.connect ~level:(Log.level log) (Server.addr srv) in
          Alcotest.(check bool) "second session spills" true (Client.spilling b);
          Log.iter (Client.send b) log;
          Client.flush b;
          (* free the slot before [b] closes: the close-time re-check obeys
             the same slot accounting as live sessions *)
          (match Client.finish holder with
          | Client.Checked _ | Client.Spilled _ -> ());
          Thread.delay 0.2;
          match Client.finish b with
          | Client.Checked _ -> Alcotest.fail "slotless session checked live"
          | Client.Spilled { path; events } ->
            Alcotest.(check int) "spool consumed the whole stream"
              (Log.length log) events;
            (* the re-check runs in the server's session thread after the
               client has its verdict: wait for the reclaim *)
            let deadline = Unix.gettimeofday () +. 5. in
            while Sys.file_exists path && Unix.gettimeofday () < deadline do
              Thread.delay 0.05
            done;
            Alcotest.(check bool) "clean spool deleted from disk" false
              (Sys.file_exists path);
            Alcotest.(check int) "net.spill_reclaimed counted it" 1
              (Metrics.value (Metrics.counter metrics "net.spill_reclaimed"));
            Alcotest.(check int) "the re-check itself was counted" 1
              (Metrics.value (Metrics.counter metrics "net.spill_rechecks"))))

(* --- SIGTERM drains the daemon --------------------------------------------- *)

let test_serve_sigterm_drains () =
  (* a real vyrdd process: SIGTERM must drain and exit 0 exactly like
     SIGINT, not die mid-session with the default fatal behavior *)
  let exe =
    List.find Sys.file_exists
      [ "../bin/vyrd_check.exe"; "_build/default/bin/vyrd_check.exe" ]
  in
  let sock = Filename.temp_file "vyrd_term" ".sock" in
  Sys.remove sock;
  let out_path = Filename.temp_file "vyrd_term" ".out" in
  let out_fd =
    Unix.openfile out_path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600
  in
  let pid =
    Unix.create_process exe
      [| exe; "serve"; "--listen"; sock; "--subjects"; "Multiset-Vector" |]
      Unix.stdin out_fd out_fd
  in
  Unix.close out_fd;
  Fun.protect
    ~finally:(fun () ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      (try ignore (Unix.waitpid [ Unix.WNOHANG ] pid)
       with Unix.Unix_error _ -> ());
      (try Sys.remove out_path with Sys_error _ -> ());
      if Sys.file_exists sock then Sys.remove sock)
    (fun () ->
      let log = buggy_log () in
      (* the retrying connect doubles as the wait for the daemon to be up *)
      (match
         Client.submit_log ~retries:20 ~backoff:0.05 (Wire.Unix_socket sock) log
       with
      | Client.Checked { report; _ } ->
        Alcotest.(check bool) "daemon convicts the buggy log" false
          (Report.is_pass report)
      | Client.Spilled _ -> Alcotest.fail "unloaded daemon spilled");
      Unix.kill pid Sys.sigterm;
      let deadline = Unix.gettimeofday () +. 10. in
      let rec await () =
        match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ ->
          if Unix.gettimeofday () > deadline then
            Alcotest.fail "daemon ignored SIGTERM"
          else begin
            Thread.delay 0.05;
            await ()
          end
        | _, status -> status
      in
      (match await () with
      | Unix.WEXITED 0 -> ()
      | Unix.WEXITED n ->
        Alcotest.fail (Printf.sprintf "daemon exited %d on SIGTERM" n)
      | Unix.WSIGNALED s ->
        Alcotest.fail (Printf.sprintf "daemon died of signal %d" s)
      | Unix.WSTOPPED _ -> Alcotest.fail "daemon stopped instead of exiting");
      let ic = open_in out_path in
      let text =
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      Alcotest.(check bool) "SIGTERM took the drain path" true
        (contains text "draining"))

(* --- flag validation precedes binding -------------------------------------- *)

let test_cluster_bad_workers_binds_nothing () =
  let exe =
    List.find Sys.file_exists
      [ "../bin/vyrd_check.exe"; "_build/default/bin/vyrd_check.exe" ]
  in
  let sock = Filename.temp_file "vyrd_workers0" ".sock" in
  Sys.remove sock;
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pid =
    Unix.create_process exe
      [| exe; "cluster"; "--listen"; sock; "--workers"; "0" |]
      Unix.stdin null null
  in
  Unix.close null;
  let _, status = Unix.waitpid [] pid in
  let left = Sys.file_exists sock in
  if left then Sys.remove sock;
  Alcotest.(check bool) "rc 2" true (status = Unix.WEXITED 2);
  Alcotest.(check bool) "no socket file left" false left

(* A session spilled under overload, then resumed from its spool by a later
   session: every farm of both starts its lanes on the process's lane pool,
   reusing the parked domain of the farm before it, and stop returns. *)
let test_spill_then_resume_reuses_lanes () =
  let log = buggy_log () in
  let metrics = Metrics.create () in
  let dir = Filename.temp_file "vyrd_pool" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  with_server ~max_sessions:1 ~spill_dir:dir ~metrics (fun srv ->
      let addr = Server.addr srv in
      (* the holder takes the one checking slot, so the next session spills *)
      let holder = Client.connect ~level:(Log.level log) addr in
      let path =
        match Client.submit_log addr log with
        | Client.Spilled { path; _ } -> path
        | Client.Checked _ -> Alcotest.fail "a full server checked live"
      in
      (match Client.finish holder with
      | Client.Checked { report; _ } ->
        Alcotest.(check bool) "the empty holder passes" true (Report.is_pass report)
      | Client.Spilled _ -> Alcotest.fail "the holder spilled");
      (* the holder's slot is released after its verdict is sent *)
      quiesce (fun () -> Server.active srv);
      let c = Client.connect ~level:(Log.level log) addr in
      let events, _, _ = Client.resume_session c ~path in
      Alcotest.(check int) "the resume adopted the whole spool" (Log.length log) events;
      (match Client.finish c with
      | Client.Spilled _ -> Alcotest.fail "the resumed session spilled"
      | Client.Checked { report; fail_index } ->
        Alcotest.(check bool) "the resumed verdict convicts" false (Report.is_pass report);
        Alcotest.(check (option int)) "same fail index as the local farm"
          (local_fail_index log) fail_index);
      (* holder, the resuming session's hello farm, then its resumed farm:
         one lane each, the last two on the domain the one before parked *)
      let v name = Metrics.value (Metrics.counter metrics name) in
      let spawns = v "farm.lane_spawns" and reuses = v "farm.lane_reuses" in
      Alcotest.(check int) "every lane started on the pool" 3 (spawns + reuses);
      Alcotest.(check bool) (Printf.sprintf "%d reuses of 3 lanes" reuses) true (reuses >= 2))

(* --- vyrd_check check --resume reads every spool's checkpoints ----------- *)

(* Both ways a spool gets farm checkpoint frames from the CLI — [check
   --checkpoint-events] on a recorded spool, and [pipeline
   --checkpoint-events] while it runs — leave frames that [check --resume]
   resumes from. *)
let test_cli_check_resumes_every_spool () =
  let exe =
    List.find Sys.file_exists
      [ "../bin/vyrd_check.exe"; "_build/default/bin/vyrd_check.exe" ]
  in
  let dir = Filename.temp_file "vyrd_cli_resume" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let out_path = Filename.concat dir "out" in
  let run args =
    let out_fd =
      Unix.openfile out_path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o600
    in
    let pid = Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin out_fd out_fd in
    Unix.close out_fd;
    let _, status = Unix.waitpid [] pid in
    let ic = open_in out_path in
    let text =
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    let what = String.concat " " args in
    if status <> Unix.WEXITED 0 then
      Alcotest.fail (Printf.sprintf "%s failed:\n%s" what text);
    (what, text)
  in
  let resumes (what, text) =
    Alcotest.(check bool) (what ^ " resumed from a frame") true
      (contains text "resumed at event")
  in
  let recorded = Filename.concat dir "recorded.seg" in
  ignore
    (run
       [ "record"; "-s"; "Multiset-Vector"; "--binary"; "--threads"; "4"; "--ops";
         "30"; "--out"; recorded ]);
  ignore (run [ "check"; "-s"; "Multiset-Vector"; "--checkpoint-events"; "200"; recorded ]);
  resumes (run [ "check"; "-s"; "Multiset-Vector"; "--resume"; recorded ]);
  let piped = Filename.concat dir "pipeline.seg" in
  ignore
    (run
       [ "pipeline"; "--subjects"; "Multiset-Vector"; "--threads"; "4"; "--ops";
         "30"; "--segments"; piped; "--checkpoint-events"; "200" ]);
  resumes (run [ "check"; "-s"; "Multiset-Vector"; "--resume"; piped ])

(* --- the shared data-session loop ------------------------------------------ *)

let family = function `Vyrdd -> "net" | `Vyrdc -> "cluster"

let test_verdict_counted_before_sent daemon () =
  with_daemon daemon (fun addr _ metrics ->
      (match Client.submit_log addr (correct_log ()) with
      | Client.Checked _ -> ()
      | Client.Spilled _ -> Alcotest.fail "unloaded daemon spilled");
      (* the client holds its verdict: no wait before reading the count *)
      let name = family daemon ^ ".verdicts" in
      Alcotest.(check int) name 1 (Metrics.value (Metrics.counter metrics name)))

let test_status_mid_session daemon () =
  let log = correct_log () in
  let evs = Log.snapshot log in
  let half = Array.length evs / 2 in
  with_daemon daemon (fun addr _ _ ->
      let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          Unix.connect fd (Wire.sockaddr_of_addr addr);
          Wire.send_client fd
            (Wire.Hello
               { h_version = Wire.version; h_level = Log.level log; h_producer = "status" });
          (match Wire.recv_server fd with
          | Wire.Hello_ack _ -> ()
          | _ -> Alcotest.fail "expected a hello ack");
          Wire.send_client fd (Wire.Batch (Array.sub evs 0 half));
          Wire.send_client fd Wire.Status_request;
          (* the window outlasts the log, so no credit comes first *)
          (match Wire.recv_server fd with
          | Wire.Status st ->
            Alcotest.(check bool) "the open session is active" true (st.Wire.st_active >= 1)
          | _ -> Alcotest.fail "expected a status reply");
          Wire.send_client fd (Wire.Batch (Array.sub evs half (Array.length evs - half)));
          Wire.send_client fd Wire.Finish;
          match Wire.recv_server fd with
          | Wire.Verdict v ->
            Alcotest.(check bool) "the session still passes" true
              (Report.is_pass v.Wire.v_report);
            Alcotest.(check int) "every event counted" (Array.length evs) v.Wire.v_events
          | _ -> Alcotest.fail "expected the verdict"))

let suite =
  [
    ("report codec round trip", `Quick, test_report_roundtrip);
    ("server msg round trip", `Quick, test_server_msg_roundtrip);
    client_roundtrip;
    ("garbage payloads rejected", `Quick, test_decode_rejects_garbage);
    ("framing round trip / CRC / torn", `Quick, test_frame_roundtrip_and_corruption);
    ("address parsing", `Quick, test_addr_of_string);
    ("loopback verdict = offline checker", `Quick, test_loopback_matches_offline);
    ("loopback correct run passes", `Quick, test_loopback_correct_run_passes);
    ("serve with analysis passes on", `Quick, test_serve_analyze_runs_passes);
    ( "overload spills; re-check agrees",
      `Quick,
      test_overload_spills_and_recheck_agrees );
    ( "connect retries until the server appears",
      `Quick,
      test_connect_retries_until_server_appears );
    ("no-retry connect fails fast", `Quick, test_no_retry_fails_fast);
    ("retry backoff is capped", `Quick, test_backoff_is_capped_and_jittered);
    ("heartbeat survives the idle timeout", `Quick, test_heartbeat_survives_idle_timeout);
    ( "idle timeout fails the session cleanly",
      `Quick,
      test_idle_timeout_fails_session_cleanly `Vyrdd );
    ("session byte sweep never yields a verdict", `Quick, test_session_byte_sweep);
    ("reused read buffer never decodes leftovers", `Quick, test_reused_read_buffer);
    ("writer frames equal framed payloads", `Quick, test_writer_frames_match);
    ( "oversized batch is clamped to the window",
      `Quick,
      test_oversized_batch_clamped_to_window );
    ( "hostile length frame releases its slot",
      `Quick,
      test_hostile_length_frame_releases_slot );
    ( "corrupt segment reader releases its fd",
      `Quick,
      test_corrupt_reader_does_not_leak_fds );
    ( "loopback sessions release their fds",
      `Quick,
      test_loopback_sessions_do_not_leak_fds `Vyrdd );
    ("cluster msg round trip", `Quick, test_cluster_msg_roundtrip);
    ( "clean spill re-check reclaims the spool",
      `Quick,
      test_spill_reclaimed_after_recheck );
    ("SIGTERM drains the daemon like SIGINT", `Quick, test_serve_sigterm_drains);
    ("cluster --workers 0 exits 2 before binding", `Quick,
     test_cluster_bad_workers_binds_nothing);
    ( "vyrdc: idle timeout fails the session cleanly",
      `Quick,
      test_idle_timeout_fails_session_cleanly `Vyrdc );
    ( "vyrdc: loopback sessions release their fds",
      `Quick,
      test_loopback_sessions_do_not_leak_fds `Vyrdc );
    ("listener: data sessions carry the idle timeout", `Quick, test_listener_data_timeouts);
    ("listener: control connections are untimed", `Quick, test_listener_control_untimed);
    ( "listener: a raising handler fails one session",
      `Quick,
      test_listener_contains_handler_failure );
    ( "listener: both daemons register its metrics",
      `Quick,
      test_daemons_register_listener_metrics );
    ( "spill then resume reuses parked lane domains",
      `Quick,
      test_spill_then_resume_reuses_lanes );
    ( "check --resume reads recorded and pipeline spools",
      `Quick,
      test_cli_check_resumes_every_spool );
    ( "vyrdd: net.verdicts counts before the verdict is sent",
      `Quick,
      test_verdict_counted_before_sent `Vyrdd );
    ( "vyrdc: cluster.verdicts counts before the verdict is sent",
      `Quick,
      test_verdict_counted_before_sent `Vyrdc );
    ("vyrdd: status request mid-session", `Quick, test_status_mid_session `Vyrdd);
    ("vyrdc: status request mid-session", `Quick, test_status_mid_session `Vyrdc);
  ]
