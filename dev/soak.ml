(* Long randomized campaign across every subject: correct variants must
   pass, buggy variants are swept until detection; prints a summary table.
   Development/release tool — not part of the test suite because of its
   runtime.

     dune exec dev/soak.exe [seeds-per-config]
     dune exec dev/soak.exe pipeline [seeds]
     dune exec dev/soak.exe net [seconds] [metrics.json]
     dune exec dev/soak.exe cluster [sessions] [metrics.json]

   The pipeline mode soaks the streaming path instead: each seed runs a
   multi-structure workload through the checker farm while spooling binary
   segments, then re-reads the spool and checks the recovered log offline —
   the merged farm verdict, the offline verdict on the live log and the
   offline verdict on the disk round trip must all agree.

   The net mode soaks the vyrdd loopback service for a wall-clock budget:
   correct and buggy workloads are submitted over a Unix socket — serially
   and in concurrent bursts that overflow max_sessions into the spill path —
   and every verdict (live or re-checked from the spool) must match the
   offline checker.  Writes the server's metrics as JSON for CI.

   The cluster mode soaks coordinator failover: a vyrdc fronting three
   vyrdd worker processes takes 120 concurrent sessions, one worker is
   SIGKILLed while every session is verifiably mid-stream, and each session
   must still reach a verdict — tag and first-violation index identical to
   offline single-process checking — with zero mismatches.  Writes the
   aggregated cluster-wide metrics as JSON for CI.
*)

open Vyrd
open Vyrd_harness
module Farm = Vyrd_pipeline.Farm
module Segment = Vyrd_pipeline.Segment
module Pmetrics = Vyrd_pipeline.Metrics
module Wire = Vyrd_net.Wire
module Server = Vyrd_net.Server
module Client = Vyrd_net.Client

let subject_soak seeds =
  let any_failure = ref false in
  Fmt.pr "soak: %d seeds per configuration@.@." seeds;
  Fmt.pr "%-22s %12s %12s %14s %14s@." "subject" "correct io" "correct view"
    "bug seen (io)" "bug seen (view)";
  Fmt.pr "%s@." (String.make 80 '-');
  List.iter
    (fun (s : Subjects.t) ->
      let correct_io = ref 0 and correct_view = ref 0 in
      let bug_io = ref 0 and bug_view = ref 0 in
      for seed = 0 to seeds - 1 do
        let cfg =
          { Harness.default with threads = 5; ops_per_thread = 30; key_pool = 10;
            key_range = 16; seed }
        in
        let w = Workload.v ~config:cfg [ s ] in
        let log = Workload.log w in
        let io = Checker.check ~mode:`Io log s.spec in
        let view =
          Checker.check ~mode:`View ~view:s.view ~invariants:s.invariants log s.spec
        in
        if Report.is_pass io then incr correct_io
        else begin
          any_failure := true;
          Fmt.pr "!! %s seed %d io: %a@." s.name seed Report.pp io
        end;
        if Report.is_pass view then incr correct_view
        else begin
          any_failure := true;
          Fmt.pr "!! %s seed %d view: %a@." s.name seed Report.pp view
        end;
        let blog = Workload.log { w with bug = true } in
        if not (Report.is_pass (Checker.check ~mode:`Io blog s.spec)) then incr bug_io;
        if
          not
            (Report.is_pass
               (Checker.check ~mode:`View ~view:s.view ~invariants:s.invariants blog
                  s.spec))
        then incr bug_view
      done;
      Fmt.pr "%-22s %9d/%d %9d/%d %11d/%d %11d/%d@." s.name !correct_io seeds
        !correct_view seeds !bug_io seeds !bug_view seeds)
    Subjects.all;
  if !any_failure then begin
    Fmt.pr "@.SOAK FAILED@.";
    exit 1
  end
  else Fmt.pr "@.SOAK CLEAN@."

(* ------------------------------------------------------------- pipeline *)

let pipeline_soak seeds =
  let spool = Filename.temp_file "vyrd_soak" ".seg" in
  let any_failure = ref false in
  let capacity = 512 in
  Fmt.pr "pipeline soak: %d seeds, %d shards, ring capacity %d@.@." seeds
    (List.length Workload.composite)
    capacity;
  Fmt.pr "%6s %9s %10s %8s %8s %10s %10s@." "seed" "events" "segments" "farm"
    "offline" "roundtrip" "high-water";
  Fmt.pr "%s@." (String.make 70 '-');
  for seed = 0 to seeds - 1 do
    let w =
      Workload.v Workload.composite
        ~config:{ Harness.default with threads = 6; ops_per_thread = 120; key_pool = 10;
                  key_range = 16; seed }
    in
    let level = w.config.log_level in
    let log = Log.create ~level () in
    let farm = Farm.start ~capacity ~level (Workload.shards w level) in
    Farm.attach farm log;
    let writer = Segment.create_writer ~segment_bytes:8192 ~level spool in
    Segment.attach writer log;
    Workload.run_into ~log w;
    Segment.close writer;
    let result = Farm.finish farm in
    let offline, _ = Workload.reference w log in
    let recovered = Segment.read spool in
    let roundtrip, _ = Workload.reference w recovered.Segment.log in
    let hw =
      List.fold_left
        (fun a (sr : Farm.shard_result) -> max a sr.Farm.sr_high_water)
        0 result.Farm.shards
    in
    let ok =
      Report.is_pass result.Farm.merged
      && Report.is_pass offline && Report.is_pass roundtrip
      && (not recovered.Segment.truncated)
      && Log.length recovered.Segment.log = Log.length log
      && hw <= capacity
    in
    if not ok then begin
      any_failure := true;
      Fmt.pr "!! seed %d: farm %a / offline %a / roundtrip %a (recovered %d of %d)@."
        seed Report.pp result.Farm.merged Report.pp offline Report.pp roundtrip
        (Log.length recovered.Segment.log)
        (Log.length log)
    end;
    Fmt.pr "%6d %9d %10d %8s %8s %10s %10d@." seed result.Farm.fed
      recovered.Segment.segments
      (Report.tag result.Farm.merged)
      (Report.tag offline) (Report.tag roundtrip) hw
  done;
  Sys.remove spool;
  if !any_failure then begin
    Fmt.pr "@.PIPELINE SOAK FAILED@.";
    exit 1
  end
  else Fmt.pr "@.PIPELINE SOAK CLEAN@."

(* ------------------------------------------------------------------ net *)

let net_soak seconds json_out =
  (* every session is checked against the composite, as offline *)
  let served = Workload.v Workload.composite in
  let sock = Filename.temp_file "vyrd_soak" ".sock" in
  let spill_dir = Filename.temp_file "vyrd_soak_spill" "" in
  Sys.remove spill_dir;
  Unix.mkdir spill_dir 0o700;
  let metrics = Pmetrics.create () in
  (* max_sessions 2 so concurrent bursts overflow into the spill path *)
  let server =
    Server.start
      (Server.config ~metrics ~max_sessions:2 ~spill_dir
         ~addr:(Wire.Unix_socket sock) (Workload.shards served))
  in
  let addr = Server.addr server in
  Fmt.pr "net soak: %ds against %a (max_sessions 2, spill to %s)@.@." seconds
    Wire.pp_addr addr spill_dir;
  let lock = Mutex.create () in
  let sessions = ref 0
  and events = ref 0
  and convicted = ref 0
  and spilled = ref 0
  and mismatches = ref 0 in
  let tally f =
    Mutex.lock lock;
    f ();
    Mutex.unlock lock
  in
  let mismatch seed what =
    tally (fun () -> incr mismatches);
    Fmt.pr "!! seed %d: %s@." seed what
  in
  let one_session seed =
    let bug = seed mod 3 = 0 in
    let log =
      Workload.log
        (Workload.v ~bug
           (if bug then [ Subjects.multiset_vector ] else Workload.composite)
           ~config:{ Harness.default with threads = 4;
                     ops_per_thread = (if bug then 25 else 20); key_pool = 10;
                     key_range = 16; seed })
    in
    let offline, offline_fail = Workload.reference served log in
    let batch = [| 32; 256; 1024 |].(seed mod 3) in
    match Client.submit_log ~retries:3 ~batch_events:batch addr log with
    | Client.Checked { report; fail_index } ->
      tally (fun () ->
          incr sessions;
          events := !events + Log.length log;
          if not (Report.is_pass report) then incr convicted);
      if not (String.equal (Report.tag report) (Report.tag offline)) then
        mismatch seed
          (Printf.sprintf "live verdict %s, offline %s" (Report.tag report)
             (Report.tag offline));
      if (not (Report.is_pass report)) && fail_index = None then
        mismatch seed "violation without a fail index"
    | Client.Spilled { path; events = n } ->
      tally (fun () ->
          incr sessions;
          incr spilled;
          events := !events + Log.length log);
      if n <> Log.length log then
        mismatch seed
          (Printf.sprintf "spool consumed %d of %d events" n (Log.length log));
      let r = Segment.read path in
      let rechecked, _ = Workload.reference served r.Segment.log in
      if r.Segment.truncated then mismatch seed "spool read back truncated";
      if not (String.equal (Report.tag rechecked) (Report.tag offline)) then
        mismatch seed
          (Printf.sprintf "spool re-check %s, offline %s" (Report.tag rechecked)
             (Report.tag offline));
      (* kill-and-resume: re-check the spool only to the halfway mark on
         a one-shard farm, checkpoint there, abandon the farm (the
         simulated kill), then resume — the resumed verdict and fail index
         must match offline *)
      let events = Log.snapshot r.Segment.log in
      let half = Array.length events / 2 in
      if half > 0 then begin
        let shards level = [ Workload.composite_shard served level ] in
        let level = Log.level r.Segment.log in
        let farm = Farm.start ~level (shards level) in
        for i = 0 to half - 1 do
          Farm.feed farm events.(i)
        done;
        let checkpointed =
          match Farm.checkpoint farm with
          | Some state ->
            Segment.append_checkpoint_file path ~events:half state;
            true
          | None -> false
        in
        (try ignore (Farm.finish farm : Farm.result) with Invalid_argument _ -> ());
        match Vyrd_pipeline.Resume.resume ~shards ~path () with
        | outcome ->
          if
            not
              (String.equal
                 (Report.tag outcome.Vyrd_pipeline.Resume.report)
                 (Report.tag offline))
          then
            mismatch seed
              (Printf.sprintf "resumed re-check %s, offline %s"
                 (Report.tag outcome.Vyrd_pipeline.Resume.report)
                 (Report.tag offline));
          if outcome.Vyrd_pipeline.Resume.fail_index <> offline_fail then
            mismatch seed "resumed fail index diverges from offline";
          if checkpointed && outcome.Vyrd_pipeline.Resume.resumed_at = None then
            mismatch seed "resume ignored the appended checkpoint frame"
        | exception
            ( Vyrd_pipeline.Bincodec.Corrupt _ | Invalid_argument _
            | Sys_error _ ) ->
          mismatch seed "resume of the annotated spool raised"
      end;
      Sys.remove path
    | exception Client.Server_error msg ->
      mismatch seed ("server failed the session: " ^ msg)
  in
  let deadline = Unix.gettimeofday () +. float_of_int seconds in
  let seed = ref 0 in
  while Unix.gettimeofday () < deadline do
    let base = !seed in
    if base mod 5 = 0 then begin
      (* a burst of concurrent sessions: two check live, the rest spill *)
      let threads =
        List.init 4 (fun i -> Thread.create one_session (base + i))
      in
      List.iter Thread.join threads;
      seed := base + 4
    end
    else begin
      one_session base;
      incr seed
    end
  done;
  Server.stop server;
  (match Sys.readdir spill_dir with
  | [||] -> Unix.rmdir spill_dir
  | leftover ->
    Array.iter (fun f -> Sys.remove (Filename.concat spill_dir f)) leftover;
    Unix.rmdir spill_dir);
  (match open_out json_out with
  | oc ->
    output_string oc (Pmetrics.to_json metrics);
    output_string oc "\n";
    close_out oc;
    Fmt.pr "@.metrics written to %s@." json_out
  | exception Sys_error msg -> Fmt.pr "@.cannot write %s: %s@." json_out msg);
  Fmt.pr
    "@.%d sessions (%d spilled), %d events, %d convictions, %d mismatches@."
    !sessions !spilled !events !convicted !mismatches;
  (* each lane a live session started is one spawn or one reuse of a
     parked domain in the server's registry, and sequential sessions reuse *)
  let lanes = (!sessions - !spilled) * List.length served.subjects in
  let spawns = Pmetrics.value (Pmetrics.counter metrics "farm.lane_spawns")
  and reuses = Pmetrics.value (Pmetrics.counter metrics "farm.lane_reuses") in
  Fmt.pr "%d lanes started: %d domains spawned, %d reused@." lanes spawns reuses;
  let pool_ok = reuses > 0 && spawns + reuses = lanes in
  if not pool_ok then Fmt.pr "!! lane pool: spawns + reuses <> lanes, or no reuse@.";
  if !mismatches > 0 || !sessions = 0 || !convicted = 0 || not pool_ok then begin
    Fmt.pr "NET SOAK FAILED@.";
    exit 1
  end
  else Fmt.pr "NET SOAK CLEAN@."

(* -------------------------------------------------------------- cluster *)

(* Kill-and-failover soak: a coordinator fronting three vyrdd worker
   processes takes a burst of concurrent sessions, one worker is SIGKILLed
   while at least [kill_at] sessions are in flight, and every session must
   still reach a verdict — with tag and first-violation index identical to
   offline single-process checking of the same log.  Workers are separate
   processes (the soak re-execs itself in a hidden [cluster-worker] argv
   mode) so the SIGKILL is a real one, not an in-process stand-in.

   Sessions check the single Multiset-Vector shard: one checker domain per
   session keeps ~40 concurrent sessions per worker process well under the
   OCaml domain ceiling. *)

let soak_subject = Workload.v [ Subjects.multiset_vector ]

let cluster_worker_main sock =
  ignore
    (Server.start
       (Server.config ~max_sessions:256 ~idle_timeout:300.
          ~addr:(Wire.Unix_socket sock) (Workload.shards soak_subject))
      : Server.t);
  while true do
    Thread.delay 3600.
  done

let cluster_soak sessions json_out =
  let module Coordinator = Vyrd_cluster.Coordinator in
  let kill_at = min 100 sessions in
  let workers = 3 in
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "vyrd_soak_cluster-%d" (Unix.getpid ()))
  in
  (try Unix.mkdir dir 0o700 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Fmt.pr
    "cluster soak: %d concurrent sessions over %d worker processes; SIGKILL \
     one worker at >= %d in flight@.@."
    sessions workers kill_at;
  (* every session's log and offline reference verdict, built up front so
     the in-flight window isn't stretched by harness runs *)
  let logs =
    Array.init sessions (fun seed ->
        let bug = seed mod 3 = 0 in
        Workload.log
          { soak_subject with
            bug;
            config =
              { Harness.default with threads = 4;
                ops_per_thread = (if bug then 40 else 60); key_pool = 10;
                key_range = 16; seed } })
  in
  let reference = Array.map (Workload.reference soak_subject) logs in
  let total = Array.fold_left (fun a l -> a + Log.length l) 0 logs in
  let members =
    List.init workers (fun i ->
        let sock = Filename.concat dir (Printf.sprintf "w%d.sock" i) in
        let pid =
          Unix.create_process Sys.executable_name
            [| Sys.executable_name; "cluster-worker"; sock |]
            Unix.stdin Unix.stdout Unix.stderr
        in
        (Printf.sprintf "w%d" i, sock, pid))
  in
  let metrics = Pmetrics.create () in
  let coord =
    Coordinator.start
      (Coordinator.config
         ~worker_slots:(max 1 ((sessions + workers - 1) / workers))
         ~checkpoint_events:1000 ~idle_timeout:120. ~metrics
         ~addr:(Wire.Unix_socket (Filename.concat dir "vyrdc.sock"))
         ~spool_dir:dir ())
  in
  List.iter
    (fun (name, sock, _) ->
      Coordinator.attach coord ~name ~addr:(Wire.Unix_socket sock))
    members;
  let lock = Mutex.create () in
  let cond = Condition.create () in
  let at_barrier = ref 0 and killed = ref false in
  let mismatches = ref 0 and verdicts = ref 0 and convicted = ref 0 in
  let mismatch seed what =
    Mutex.lock lock;
    incr mismatches;
    Mutex.unlock lock;
    Fmt.pr "!! session %d: %s@." seed what
  in
  (* Each session streams the first half of its log, forces a checkpoint
     barrier — protocol order guarantees its worker leg is open and has
     consumed everything sent — and then pauses mid-stream until the kill
     has landed.  Every session is therefore verifiably in flight at the
     moment of the SIGKILL, and the victim's share must fail over. *)
  let one_session seed =
    let log = logs.(seed) in
    let half = Log.length log / 2 in
    (match Client.connect ~level:(Log.level log)
             ~batch_events:[| 32; 128; 512 |].(seed mod 3)
             ~producer:(Printf.sprintf "soak-%d" seed)
             (Coordinator.addr coord)
     with
    | t ->
      (let i = ref 0 in
       Log.iter
         (fun ev ->
           if !i < half then Client.send t ev;
           incr i)
         log);
      Client.flush t;
      ignore (Client.request_checkpoint t);
      Mutex.lock lock;
      incr at_barrier;
      Condition.broadcast cond;
      while not !killed do
        Condition.wait cond lock
      done;
      Mutex.unlock lock;
      (let i = ref 0 in
       Log.iter
         (fun ev ->
           if !i >= half then Client.send t ev;
           incr i)
         log);
      (match Client.finish t with
      | Client.Checked { report; fail_index } ->
        let rref, ridx = reference.(seed) in
        Mutex.lock lock;
        incr verdicts;
        if not (Report.is_pass report) then incr convicted;
        Mutex.unlock lock;
        if not (String.equal (Report.tag report) (Report.tag rref)) then
          mismatch seed
            (Printf.sprintf "cluster verdict %s, offline %s"
               (Report.tag report) (Report.tag rref));
        if fail_index <> ridx then
          mismatch seed
            (Printf.sprintf "fail index %s, offline %s"
               (match fail_index with Some i -> string_of_int i | None -> "-")
               (match ridx with Some i -> string_of_int i | None -> "-"))
      | Client.Spilled _ -> mismatch seed "session spilled instead of checking"
      | exception Client.Server_error msg ->
        mismatch seed ("session failed: " ^ msg)
      | exception Unix.Unix_error (e, _, _) ->
        mismatch seed ("session failed: " ^ Unix.error_message e))
    | exception Client.Server_error msg ->
      mismatch seed ("connect refused: " ^ msg)
    | exception Unix.Unix_error (e, _, _) ->
      mismatch seed ("connect failed: " ^ Unix.error_message e))
  in
  let threads = List.init sessions (fun i -> Thread.create one_session i) in
  (* SIGKILL the victim only once every session sits mid-stream at its
     barrier (>= kill_at of them, with open legs spread over the ring) *)
  Mutex.lock lock;
  while !at_barrier < sessions do
    Condition.wait cond lock
  done;
  Mutex.unlock lock;
  let flight_at_kill = !at_barrier in
  let victim_name, _, victim_pid = List.nth members (sessions mod workers) in
  Unix.kill victim_pid Sys.sigkill;
  ignore (Unix.waitpid [] victim_pid);
  Mutex.lock lock;
  killed := true;
  Condition.broadcast cond;
  Mutex.unlock lock;
  Fmt.pr "killed %s (pid %d) with %d session(s) in flight@.@." victim_name
    victim_pid flight_at_kill;
  List.iter Thread.join threads;
  let agg = Coordinator.aggregate coord in
  Coordinator.stop coord;
  List.iter
    (fun (_, _, pid) ->
      if pid <> victim_pid then begin
        (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
        try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()
      end)
    members;
  (try
     Array.iter
       (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
       (Sys.readdir dir);
     Unix.rmdir dir
   with Sys_error _ | Unix.Unix_error _ -> ());
  (match open_out json_out with
  | oc ->
    output_string oc (Pmetrics.to_json agg);
    output_string oc "\n";
    close_out oc;
    Fmt.pr "@.cluster-wide metrics written to %s@." json_out
  | exception Sys_error msg -> Fmt.pr "@.cannot write %s: %s@." json_out msg);
  let counter name = Pmetrics.value (Pmetrics.counter agg name) in
  let reassigned = counter "cluster.reassignments" in
  let resumes = counter "cluster.resumes" in
  let dead = counter "cluster.workers_dead" in
  Fmt.pr
    "@.%d/%d sessions verdicted (%d events, %d convictions, %d in flight at \
     the kill), %d reassigned, %d resumed, %d worker(s) dead, %d mismatches@."
    !verdicts sessions total !convicted flight_at_kill reassigned resumes dead
    !mismatches;
  if
    !mismatches > 0 || !verdicts <> sessions || !convicted = 0
    || flight_at_kill < kill_at || reassigned = 0 || resumes = 0 || dead = 0
  then begin
    Fmt.pr "CLUSTER SOAK FAILED@.";
    exit 1
  end
  else Fmt.pr "CLUSTER SOAK CLEAN@."

let () =
  if Array.length Sys.argv >= 3 && Sys.argv.(1) = "cluster-worker" then
    cluster_worker_main Sys.argv.(2);
  match Array.to_list Sys.argv with
  | _ :: "pipeline" :: rest ->
    pipeline_soak (match rest with n :: _ -> int_of_string n | [] -> 25)
  | _ :: "net" :: rest ->
    let seconds = match rest with n :: _ -> int_of_string n | [] -> 30 in
    let json_out =
      match rest with _ :: f :: _ -> f | _ -> "SOAK_net_metrics.json"
    in
    net_soak seconds json_out
  | _ :: "cluster" :: rest ->
    let sessions = match rest with n :: _ -> int_of_string n | [] -> 120 in
    let json_out =
      match rest with _ :: f :: _ -> f | _ -> "SOAK_cluster_metrics.json"
    in
    cluster_soak sessions json_out
  | _ :: n :: _ -> subject_soak (int_of_string n)
  | _ -> subject_soak 100
