(* The vyrdc cluster: consistent-hash ring properties (deterministic
   placement, balance over random memberships, minimal remapping on
   add/remove), Metrics.merge algebra (commutative/associative up to export
   equality, counters sum, gauges max, histograms bucket-wise) with an RFC
   8259 validity check on the JSON export, and end-to-end coordinator
   sessions: an unmodified Client connecting through vyrdc gets verdicts
   identical to offline checking, across routing, drain, and kill-a-worker
   checkpoint failover. *)

open Vyrd
open Vyrd_harness
open Vyrd_pipeline
open Vyrd_net
open Vyrd_cluster

let qcheck t = QCheck_alcotest.to_alcotest t

(* --- hash ring ------------------------------------------------------------- *)

let test_ring_deterministic () =
  let mk () = Hashring.create ~vnodes:64 ~seed:7 [ "a"; "b"; "c" ] in
  let r1 = mk () and r2 = mk () in
  for i = 0 to 199 do
    let key = Printf.sprintf "session-%06d" i in
    Alcotest.(check (option string))
      ("placement of " ^ key ^ " is a pure function of the ring")
      (Hashring.lookup r1 key) (Hashring.lookup r2 key)
  done;
  Alcotest.(check bool) "different seed, different placement somewhere" true
    (let r3 = Hashring.create ~vnodes:64 ~seed:8 [ "a"; "b"; "c" ] in
     List.exists
       (fun i ->
         let key = Printf.sprintf "session-%06d" i in
         Hashring.lookup r1 key <> Hashring.lookup r3 key)
       (List.init 200 Fun.id))

let test_ring_basics () =
  let empty = Hashring.create [] in
  Alcotest.(check bool) "empty ring is empty" true (Hashring.is_empty empty);
  Alcotest.(check (option string)) "lookup on empty" None
    (Hashring.lookup empty "k");
  Alcotest.(check (list string)) "ordered on empty" [] (Hashring.ordered empty "k");
  let r = Hashring.create ~vnodes:32 [ "b"; "a"; "a"; "c" ] in
  Alcotest.(check (list string)) "members sorted, deduped" [ "a"; "b"; "c" ]
    (Hashring.members r);
  let ord = Hashring.ordered r "some-key" in
  Alcotest.(check int) "ordered enumerates every member once" 3
    (List.length (List.sort_uniq compare ord));
  Alcotest.(check (option string)) "ordered starts at the owner"
    (Hashring.lookup r "some-key")
    (match ord with m :: _ -> Some m | [] -> None);
  let total = List.fold_left (fun a (_, s) -> a +. s) 0.0 (Hashring.shares r) in
  Alcotest.(check bool) "shares sum to 1" true (abs_float (total -. 1.0) < 1e-9)

let membership_gen =
  QCheck2.Gen.(
    let* n = int_range 2 10 in
    let member = map (Printf.sprintf "w%d") (int_range 0 99) in
    map (List.sort_uniq compare) (list_size (return n) member))

let prop_ring_balance =
  QCheck2.Test.make ~name:"ring balance: every member near its fair share"
    ~count:1000 membership_gen (fun members ->
      let members = if members = [] then [ "w0" ] else members in
      let r = Hashring.create ~vnodes:128 members in
      let n = List.length (Hashring.members r) in
      let fair = 1.0 /. float_of_int n in
      List.for_all
        (fun (_, share) -> share > 0.3 *. fair && share < 2.5 *. fair)
        (Hashring.shares r))

let prop_ring_remap_add =
  QCheck2.Test.make ~name:"ring add remaps only to the new member" ~count:200
    membership_gen (fun members ->
      let members = if members = [] then [ "w0" ] else members in
      let r = Hashring.create ~vnodes:64 members in
      let r' = Hashring.add r "fresh" in
      List.for_all
        (fun i ->
          let key = Printf.sprintf "key-%d" i in
          let before = Hashring.lookup r key and after = Hashring.lookup r' key in
          before = after || after = Some "fresh")
        (List.init 200 Fun.id))

let prop_ring_remap_remove =
  QCheck2.Test.make ~name:"ring remove remaps only the removed member's keys"
    ~count:200 membership_gen (fun members ->
      let members = if List.length members < 2 then [ "w0"; "w1" ] else members in
      let victim = List.hd members in
      let r = Hashring.create ~vnodes:64 members in
      let r' = Hashring.remove r victim in
      List.for_all
        (fun i ->
          let key = Printf.sprintf "key-%d" i in
          let before = Hashring.lookup r key and after = Hashring.lookup r' key in
          if before = Some victim then after <> Some victim
          else before = after)
        (List.init 200 Fun.id))

(* --- membership / bounded-load placement ----------------------------------- *)

let test_member_bounded_load () =
  let m = Member.create ~vnodes:32 () in
  let w1 = Member.add m ~name:"w1" ~addr:(Wire.Unix_socket "/none1") ~slots:2 in
  let w2 = Member.add m ~name:"w2" ~addr:(Wire.Unix_socket "/none2") ~slots:2 in
  let taken =
    List.init 4 (fun i ->
        match Member.acquire m ~key:(Printf.sprintf "s%d" i) ~avoid:[] with
        | Some w -> w
        | None -> Alcotest.fail "acquire with free slots returned None")
  in
  Alcotest.(check int) "w1 at capacity" 2 w1.Member.w_busy;
  Alcotest.(check int) "w2 at capacity" 2 w2.Member.w_busy;
  Alcotest.(check bool) "fifth acquire overflows nowhere" true
    (Member.acquire m ~key:"s4" ~avoid:[] = None);
  Member.release m (List.hd taken);
  (match Member.acquire m ~key:"s5" ~avoid:[] with
  | Some w -> Member.release m w
  | None -> Alcotest.fail "released slot is not reusable");
  List.iter (Member.release m) (List.tl taken);
  Member.mark m "w1" Member.Dead;
  Alcotest.(check (list string)) "dead worker leaves the ring" [ "w2" ]
    (Hashring.members (Member.ring m));
  (match Member.acquire m ~key:"s6" ~avoid:[] with
  | Some w -> Alcotest.(check string) "placement avoids the dead worker" "w2" w.Member.w_name
  | None -> Alcotest.fail "no placement with w2 free")

(* --- Metrics.merge ---------------------------------------------------------- *)

let test_merge_units () =
  let a = Metrics.create () and b = Metrics.create () in
  Metrics.add (Metrics.counter a "c") 3;
  Metrics.add (Metrics.counter b "c") 4;
  Metrics.record (Metrics.gauge a "g") 10;
  Metrics.record (Metrics.gauge b "g") 7;
  let ha = Metrics.histogram a "h" and hb = Metrics.histogram b "h" in
  List.iter (Metrics.observe ha) [ 1; 100 ];
  List.iter (Metrics.observe hb) [ 100; 5000 ];
  Metrics.add (Metrics.counter b "only_b") 9;
  let into = Metrics.create () in
  Metrics.merge ~into a;
  Metrics.merge ~into b;
  Alcotest.(check int) "counters sum" 7 (Metrics.value (Metrics.counter into "c"));
  Alcotest.(check int) "missing counters appear" 9
    (Metrics.value (Metrics.counter into "only_b"));
  Alcotest.(check int) "gauges keep the max" 10
    (Metrics.gauge_value (Metrics.gauge into "g"));
  let h = Metrics.histogram into "h" in
  Alcotest.(check int) "histogram counts sum" 4 (Metrics.hist_count h);
  Alcotest.(check int) "histogram max survives" 5000 (Metrics.hist_max h)

let test_merge_kind_mismatch () =
  let a = Metrics.create () and b = Metrics.create () in
  ignore (Metrics.counter a "x");
  ignore (Metrics.gauge b "x");
  Alcotest.(check bool) "merging a gauge into a counter is refused" true
    (match Metrics.merge ~into:a b with
    | () -> false
    | exception Invalid_argument _ -> true)

let test_encode_roundtrip () =
  let m = Metrics.create () in
  Metrics.add (Metrics.counter m "net.events") 123456;
  Metrics.record (Metrics.gauge m "net.sessions_peak") 17;
  let h = Metrics.histogram m "net.batch_events" in
  List.iter (Metrics.observe h) [ 0; 1; 63; 64; 100_000 ];
  let m' = Metrics.decode (Metrics.encode m) in
  Alcotest.(check string) "decode . encode is the identity on exports"
    (Metrics.encode m) (Metrics.encode m');
  Alcotest.(check int) "counter survives" 123456
    (Metrics.value (Metrics.counter m' "net.events"));
  Alcotest.(check int) "histogram count survives" 5
    (Metrics.hist_count (Metrics.histogram m' "net.batch_events"));
  Alcotest.(check bool) "truncated snapshot is corrupt" true
    (match Metrics.decode (String.sub (Metrics.encode m) 0 3) with
    | (_ : Metrics.t) -> false
    | exception Bincodec.Corrupt _ -> true)

(* a random registry: some counters, gauges and histograms over a small
   shared name pool so merges actually collide *)
let registry_gen =
  QCheck2.Gen.(
    let entry =
      let* name = map (Printf.sprintf "m%d") (int_range 0 5) in
      let* kind = int_range 0 2 in
      let* v = int_range 0 100_000 in
      return (name, kind, v)
    in
    list_size (int_range 0 12) entry)

let build_registry entries =
  let m = Metrics.create () in
  List.iter
    (fun (name, kind, v) ->
      (* one kind per name: derive it from the name so random entries never
         conflict within a registry *)
      let kind = (Hashtbl.hash name + kind) mod 3 in
      let name = Printf.sprintf "%s_k%d" name kind in
      match kind with
      | 0 -> Metrics.add (Metrics.counter m name) v
      | 1 -> Metrics.record (Metrics.gauge m name) v
      | _ -> Metrics.observe (Metrics.histogram m name) v)
    entries;
  m

let merged lst =
  let into = Metrics.create () in
  List.iter (fun m -> Metrics.merge ~into m) lst;
  Metrics.encode into

let prop_merge_commutative =
  QCheck2.Test.make ~name:"merge is commutative up to export" ~count:300
    QCheck2.Gen.(pair registry_gen registry_gen)
    (fun (ea, eb) ->
      let a () = build_registry ea and b () = build_registry eb in
      merged [ a (); b () ] = merged [ b (); a () ])

let prop_merge_associative =
  QCheck2.Test.make ~name:"merge is associative up to export" ~count:300
    QCheck2.Gen.(triple registry_gen registry_gen registry_gen)
    (fun (ea, eb, ec) ->
      let a () = build_registry ea
      and b () = build_registry eb
      and c () = build_registry ec in
      let left =
        let ab = Metrics.create () in
        Metrics.merge ~into:ab (a ());
        Metrics.merge ~into:ab (b ());
        merged [ ab; c () ]
      in
      let right =
        let bc = Metrics.create () in
        Metrics.merge ~into:bc (b ());
        Metrics.merge ~into:bc (c ());
        merged [ a (); bc ]
      in
      left = right)

(* minimal RFC 8259 recognizer: accepts exactly one JSON text *)
let json_valid s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let error = ref false in
  let fail () = error := true in
  let ws () =
    while (not !error) && (match peek () with
      | Some (' ' | '\t' | '\n' | '\r') -> true | _ -> false)
    do advance () done
  in
  let expect c = match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail ()
  in
  let literal l = String.iter expect l in
  let string_lit () =
    expect '"';
    let closed = ref false in
    while (not !error) && not !closed do
      match peek () with
      | None -> fail ()
      | Some '"' -> advance (); closed := true
      | Some '\\' -> (
          advance ();
          match peek () with
          | Some ('"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't') -> advance ()
          | Some 'u' ->
              advance ();
              for _ = 1 to 4 do
                (match peek () with
                | Some ('0' .. '9' | 'a' .. 'f' | 'A' .. 'F') -> advance ()
                | _ -> fail ())
              done
          | _ -> fail ())
      | Some c when Char.code c < 0x20 -> fail ()
      | Some _ -> advance ()
    done
  in
  let digits () =
    let saw = ref false in
    while (match peek () with Some '0' .. '9' -> true | _ -> false) do
      saw := true; advance ()
    done;
    if not !saw then fail ()
  in
  let number () =
    (match peek () with Some '-' -> advance () | _ -> ());
    (match peek () with
    | Some '0' -> advance ()
    | Some '1' .. '9' -> digits ()
    | _ -> fail ());
    (match peek () with Some '.' -> advance (); digits () | _ -> ());
    match peek () with
    | Some ('e' | 'E') ->
        advance ();
        (match peek () with Some ('+' | '-') -> advance () | _ -> ());
        digits ()
    | _ -> ()
  in
  let rec value () =
    ws ();
    (match peek () with
    | Some '{' ->
        advance (); ws ();
        if peek () = Some '}' then advance ()
        else begin
          let more = ref true in
          while (not !error) && !more do
            ws (); string_lit (); ws (); expect ':'; value (); ws ();
            match peek () with
            | Some ',' -> advance ()
            | Some '}' -> advance (); more := false
            | _ -> fail (); more := false
          done
        end
    | Some '[' ->
        advance (); ws ();
        if peek () = Some ']' then advance ()
        else begin
          let more = ref true in
          while (not !error) && !more do
            value (); ws ();
            match peek () with
            | Some ',' -> advance ()
            | Some ']' -> advance (); more := false
            | _ -> fail (); more := false
          done
        end
    | Some '"' -> string_lit ()
    | Some 't' -> literal "true"
    | Some 'f' -> literal "false"
    | Some 'n' -> literal "null"
    | Some ('-' | '0' .. '9') -> number ()
    | _ -> fail ());
    ws ()
  in
  value ();
  (not !error) && !pos = n

let test_json_validator_sanity () =
  List.iter
    (fun (ok, s) ->
      Alcotest.(check bool) ("json_valid " ^ s) ok (json_valid s))
    [
      (true, "{}"); (true, "[1, 2.5, -3e+7]"); (true, "{\"a\": [true, null, \"x\\n\"]}");
      (false, "{"); (false, "[1,]"); (false, "01"); (false, "\"\\q\""); (false, "{} {}");
    ]

let test_merged_json_is_valid () =
  let a = build_registry [ ("m0", 0, 5); ("m1", 1, 6); ("m2", 2, 7) ] in
  let b = build_registry [ ("m0", 0, 8); ("m3", 2, 90_000) ] in
  let into = Metrics.create () in
  Metrics.merge ~into a;
  Metrics.merge ~into b;
  Alcotest.(check bool) "merged registry exports RFC 8259-valid JSON" true
    (json_valid (Metrics.to_json into))

(* --- coordinator end to end ------------------------------------------------- *)

let examples_dir () =
  List.find Sys.file_exists [ "examples/logs"; "../../../examples/logs" ]

let subject = Subjects.multiset_vector

let shards _level =
  [ Farm.shard ~mode:`View ~view:subject.Subjects.view subject.Subjects.name
      subject.Subjects.spec ]

let buggy_log () =
  Log.of_file (Filename.concat (examples_dir ()) "multiset_vector_buggy.log")

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

let temp_dir prefix =
  let d = Filename.temp_file prefix "" in
  Sys.remove d;
  Unix.mkdir d 0o700;
  d

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter
      (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
      (Sys.readdir dir);
    try Unix.rmdir dir with Unix.Unix_error _ -> ()
  end

let with_cluster ?(workers = 2) ?(slots = 4) ?checkpoint_events ?keep_spools
    ?idle_timeout ?window f =
  let dir = temp_dir "vyrd_cluster" in
  let sup = Supervisor.start ~count:workers ~max_sessions:slots ~dir ~shards () in
  let sock = Filename.concat dir "vyrdc.sock" in
  let metrics = Metrics.create () in
  let coord =
    Coordinator.start
      (Coordinator.config ?checkpoint_events ?keep_spools ?idle_timeout ?window
         ~worker_slots:slots
         ~metrics ~addr:(Wire.Unix_socket sock)
         ~spool_dir:(Filename.concat dir "spool") ())
  in
  List.iter
    (fun (name, addr) -> Coordinator.attach coord ~name ~addr)
    (Supervisor.workers sup);
  Fun.protect
    ~finally:(fun () ->
      Coordinator.stop ~deadline:5. coord;
      Supervisor.stop sup;
      rm_rf (Filename.concat dir "spool");
      rm_rf dir)
    (fun () -> f coord sup)

let test_cluster_verdict_matches_offline () =
  let log = buggy_log () in
  let offline =
    Checker.check ~mode:`View ~view:subject.Subjects.view log subject.Subjects.spec
  in
  with_cluster (fun coord _sup ->
      (* the stock client, pointed at the coordinator unchanged *)
      match Client.submit_log ~batch_events:64 (Coordinator.addr coord) log with
      | Client.Spilled _ -> Alcotest.fail "cluster session spilled"
      | Client.Checked { report; fail_index } ->
          Alcotest.(check string) "same violation kind as offline"
            (Report.tag offline) (Report.tag report);
          Alcotest.(check (option int)) "same fail index as the local farm"
            (local_fail_index log) fail_index)

let test_cluster_routes_across_workers () =
  let log = buggy_log () in
  with_cluster ~workers:3 ~slots:2 (fun coord sup ->
      let results =
        List.init 6 (fun _ ->
            Client.submit_log ~batch_events:64 (Coordinator.addr coord) log)
      in
      List.iter
        (function
          | Client.Checked { report; _ } ->
              Alcotest.(check bool) "buggy log convicts through the cluster"
                false (Report.is_pass report)
          | Client.Spilled _ -> Alcotest.fail "cluster session spilled")
        results;
      let m = Coordinator.metrics coord in
      Alcotest.(check int) "all sessions verdicted" 6
        (Metrics.value (Metrics.counter m "cluster.verdicts"));
      Alcotest.(check int) "all sessions routed" 6
        (Metrics.value (Metrics.counter m "cluster.sessions_routed"));
      (* worker metrics scraped via control connections account for every
         session *)
      ignore sup;
      let agg = Coordinator.aggregate coord in
      Alcotest.(check bool) "aggregate includes worker net.* families" true
        (Metrics.value (Metrics.counter agg "net.sessions") >= 6))

let test_cluster_failover_preserves_verdict () =
  let log = buggy_log () in
  let offline_idx = local_fail_index log in
  let dir = temp_dir "vyrd_failover" in
  let sup = Supervisor.start ~count:2 ~dir ~shards () in
  let metrics = Metrics.create () in
  let coord =
    Coordinator.start
      (Coordinator.config ~checkpoint_events:40 ~metrics
         ~addr:(Wire.Unix_socket (Filename.concat dir "vyrdc.sock"))
         ~spool_dir:(Filename.concat dir "spool") ())
  in
  Fun.protect
    ~finally:(fun () ->
      Coordinator.stop ~deadline:5. coord;
      Supervisor.stop sup;
      rm_rf (Filename.concat dir "spool");
      rm_rf dir)
    (fun () ->
      let workers = Supervisor.workers sup in
      let w0_name, w0_addr = List.nth workers 0 in
      let w1_name, w1_addr = List.nth workers 1 in
      (* deterministic failover: only w0 attached while the first half
         streams, so the session must start there *)
      Coordinator.attach coord ~name:w0_name ~addr:w0_addr;
      let t =
        Client.connect ~level:(Log.level log) ~batch_events:16
          (Coordinator.addr coord)
      in
      let half = Log.length log / 2 in
      let i = ref 0 in
      Log.iter
        (fun ev ->
          if !i < half then Client.send t ev;
          incr i)
        log;
      Client.flush t;
      (* barrier: the coordinator has spooled and forwarded everything sent
         so far once this returns — the kill below is deterministic *)
      ignore (Client.request_checkpoint t);
      (* SIGKILL stand-in: w0 dies with the session mid-stream *)
      Supervisor.kill sup w0_name;
      Coordinator.attach coord ~name:w1_name ~addr:w1_addr;
      i := 0;
      Log.iter
        (fun ev ->
          if !i >= half then Client.send t ev;
          incr i)
        log;
      match Client.finish t with
      | Client.Spilled _ -> Alcotest.fail "failover session spilled"
      | Client.Checked { report; fail_index } ->
          Alcotest.(check bool) "verdict survives the failover" false
            (Report.is_pass report);
          Alcotest.(check (option int))
            "fail index identical to single-process offline checking"
            offline_idx fail_index;
          let v name = Metrics.value (Metrics.counter metrics name) in
          Alcotest.(check bool) "a leg failure was recorded" true
            (v "cluster.leg_failures" >= 1);
          Alcotest.(check bool) "the session was reassigned" true
            (v "cluster.reassignments" >= 1);
          Alcotest.(check bool) "the new worker resumed from the spool" true
            (v "cluster.resumes" >= 1);
          Alcotest.(check bool) "the replay recovered every spooled event" true
            (v "cluster.resume_replayed" >= half);
          Alcotest.(check bool) "the dead worker was noticed" true
            (v "cluster.workers_dead" >= 1))

let test_cluster_failover_resumes_from_checkpoint () =
  (* a clean run: the worker farm can snapshot (no violation pins it), so
     the coordinator's piggybacked checkpoints land in the spool and the
     replacement worker replays a suffix, not the whole stream *)
  let log =
    Harness.run
      { Harness.default with threads = 4; ops_per_thread = 40; log_level = `View }
      (subject.Subjects.build ~bug:false)
  in
  let dir = temp_dir "vyrd_ck_failover" in
  let sup = Supervisor.start ~count:2 ~dir ~shards () in
  let metrics = Metrics.create () in
  let coord =
    Coordinator.start
      (Coordinator.config ~checkpoint_events:40 ~metrics
         ~addr:(Wire.Unix_socket (Filename.concat dir "vyrdc.sock"))
         ~spool_dir:(Filename.concat dir "spool") ())
  in
  Fun.protect
    ~finally:(fun () ->
      Coordinator.stop ~deadline:5. coord;
      Supervisor.stop sup;
      rm_rf (Filename.concat dir "spool");
      rm_rf dir)
    (fun () ->
      let workers = Supervisor.workers sup in
      let w0_name, w0_addr = List.nth workers 0 in
      let w1_name, w1_addr = List.nth workers 1 in
      Coordinator.attach coord ~name:w0_name ~addr:w0_addr;
      let t =
        Client.connect ~level:(Log.level log) ~batch_events:16
          (Coordinator.addr coord)
      in
      let half = Log.length log / 2 in
      let i = ref 0 in
      Log.iter
        (fun ev ->
          if !i < half then Client.send t ev;
          incr i)
        log;
      Client.flush t;
      (* barrier: forces a checkpoint covering the half sent so far into
         the spool, and makes the kill point deterministic *)
      ignore (Client.request_checkpoint t);
      Supervisor.kill sup w0_name;
      Coordinator.attach coord ~name:w1_name ~addr:w1_addr;
      i := 0;
      Log.iter
        (fun ev ->
          if !i >= half then Client.send t ev;
          incr i)
        log;
      match Client.finish t with
      | Client.Spilled _ -> Alcotest.fail "failover session spilled"
      | Client.Checked { report; fail_index } ->
          Alcotest.(check bool) "clean run still passes after failover" true
            (Report.is_pass report);
          Alcotest.(check (option int)) "no fail index" None fail_index;
          let v name = Metrics.value (Metrics.counter metrics name) in
          Alcotest.(check bool) "checkpoints were spooled" true
            (v "cluster.checkpoints" >= 1);
          Alcotest.(check bool) "the replay resumed from a checkpoint" true
            (v "cluster.resume_from_checkpoint" >= 1);
          Alcotest.(check bool) "the resume replayed only a suffix" true
            (v "cluster.resume_replayed" < half))

let test_cluster_drain_reroutes () =
  let log = buggy_log () in
  with_cluster ~workers:2 (fun coord sup ->
      let w0_name, _ = List.hd (Supervisor.workers sup) in
      Coordinator.drain coord w0_name;
      Alcotest.(check (list string)) "drained worker leaves the ring"
        (List.filter (( <> ) w0_name)
           (List.map fst (Supervisor.workers sup)))
        (Hashring.members (Coordinator.ring coord));
      (match Supervisor.server sup w0_name with
      | Some srv ->
          Alcotest.(check bool) "worker saw the drain order" true
            (Server.draining srv)
      | None -> Alcotest.fail "drained worker vanished");
      (* sessions still verdict — on the remaining worker *)
      (match Client.submit_log ~batch_events:64 (Coordinator.addr coord) log with
      | Client.Checked { report; _ } ->
          Alcotest.(check bool) "verdicts keep flowing during a drain" false
            (Report.is_pass report)
      | Client.Spilled _ -> Alcotest.fail "cluster session spilled");
      match Supervisor.server sup w0_name with
      | Some srv ->
          Alcotest.(check int) "drained worker took no new data session" 0
            (Server.active srv)
      | None -> ())

let test_cluster_respawn_rejoins () =
  (* the supervisor's auto-respawn: kill the same worker twice, let the
     backoff bring it back on its original address, and check the
     coordinator's verdicts still match offline checking every time *)
  let log = buggy_log () in
  let offline_idx = local_fail_index log in
  let dir = temp_dir "vyrd_respawn" in
  let coord_ref = ref None in
  let respawned = ref 0 in
  let sup =
    Supervisor.start ~count:2 ~max_respawns:2 ~backoff:0.01
      ~on_respawn:(fun name addr ->
        (match !coord_ref with
        | Some coord -> Coordinator.attach coord ~name ~addr
        | None -> ());
        incr respawned)
      ~dir ~shards ()
  in
  let metrics = Metrics.create () in
  let coord =
    Coordinator.start
      (Coordinator.config ~metrics
         ~addr:(Wire.Unix_socket (Filename.concat dir "vyrdc.sock"))
         ~spool_dir:(Filename.concat dir "spool") ())
  in
  coord_ref := Some coord;
  Fun.protect
    ~finally:(fun () ->
      Coordinator.stop ~deadline:5. coord;
      Supervisor.stop sup;
      rm_rf (Filename.concat dir "spool");
      rm_rf dir)
    (fun () ->
      List.iter
        (fun (name, addr) -> Coordinator.attach coord ~name ~addr)
        (Supervisor.workers sup);
      let wait_back name generation =
        let deadline = Unix.gettimeofday () +. 5. in
        let rec loop () =
          if Supervisor.server sup name <> None && !respawned >= generation
          then ()
          else if Unix.gettimeofday () > deadline then
            Alcotest.fail (name ^ " did not respawn in time")
          else begin
            Thread.delay 0.01;
            loop ()
          end
        in
        loop ()
      in
      let submit_and_check tag =
        match Client.submit_log ~batch_events:64 (Coordinator.addr coord) log with
        | Client.Spilled _ -> Alcotest.fail (tag ^ ": session spilled")
        | Client.Checked { report; fail_index } ->
            Alcotest.(check bool) (tag ^ ": buggy log convicts") false
              (Report.is_pass report);
            Alcotest.(check (option int))
              (tag ^ ": fail index matches offline") offline_idx fail_index
      in
      submit_and_check "before any kill";
      Supervisor.kill sup "w0";
      wait_back "w0" 1;
      submit_and_check "after first respawn";
      Supervisor.kill sup "w0";
      wait_back "w0" 2;
      submit_and_check "after second respawn";
      Alcotest.(check int) "two respawns recorded" 2
        (Supervisor.respawns sup "w0");
      Alcotest.(check int) "the ring re-registered the reborn worker" 2
        !respawned;
      (* budget spent: a third kill forgets the worker for good *)
      Supervisor.kill sup "w0";
      Thread.delay 0.1;
      Alcotest.(check bool) "third kill exceeds the cap: worker stays down"
        true
        (Supervisor.server sup "w0" = None);
      submit_and_check "after the final kill")

let test_cluster_spools_reclaimed () =
  let log = buggy_log () in
  with_cluster (fun coord _sup ->
      (match Client.submit_log ~batch_events:64 (Coordinator.addr coord) log with
      | Client.Checked _ -> ()
      | Client.Spilled _ -> Alcotest.fail "cluster session spilled");
      (* give the session thread a beat to run its cleanup *)
      let rec wait n =
        if n > 0 && Coordinator.active coord > 0 then begin
          Thread.delay 0.02;
          wait (n - 1)
        end
      in
      wait 100;
      let spool_dir =
        match Coordinator.addr coord with
        | Wire.Unix_socket sock ->
            Filename.concat (Filename.dirname sock) "spool"
        | Wire.Tcp _ -> Alcotest.fail "unexpected tcp coordinator"
      in
      Alcotest.(check (array string))
        "verdicted session's spool was deleted" [||] (Sys.readdir spool_dir))

let test_cluster_status_scrape () =
  let log = buggy_log () in
  with_cluster (fun coord _sup ->
      (match Client.submit_log ~batch_events:64 (Coordinator.addr coord) log with
      | Client.Checked _ -> ()
      | Client.Spilled _ -> Alcotest.fail "cluster session spilled");
      (* a bare status connection against the coordinator itself *)
      let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          Unix.connect fd (Wire.sockaddr_of_addr (Coordinator.addr coord));
          Wire.send_client fd Wire.Status_request;
          match Wire.recv_server fd with
          | Wire.Status st ->
              Alcotest.(check bool) "not draining" false st.Wire.st_draining;
              let m = Metrics.decode st.Wire.st_metrics in
              Alcotest.(check bool) "scrape carries cluster-wide sessions" true
                (Metrics.value (Metrics.counter m "cluster.sessions") >= 1);
              Alcotest.(check bool) "scrape folds in worker registries" true
                (Metrics.value (Metrics.counter m "net.events") >= Log.length log)
          | _ -> Alcotest.fail "expected a status reply"))

let test_cluster_status_connection_not_a_session () =
  (* a status connection is polled at its peer's pace: it is no active
     session, the client idle timeout does not apply to it, and closing it
     is no failure *)
  with_cluster ~idle_timeout:0.3 (fun coord _sup ->
      let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          Unix.connect fd (Wire.sockaddr_of_addr (Coordinator.addr coord));
          let poll what =
            Wire.send_client fd Wire.Status_request;
            match Wire.recv_server fd with
            | Wire.Status st ->
                Alcotest.(check int) (what ^ ": st_active") 0 st.Wire.st_active;
                Alcotest.(check int) (what ^ ": Coordinator.active") 0
                  (Coordinator.active coord)
            | _ -> Alcotest.failf "%s: expected a status reply" what
          in
          poll "first poll";
          Thread.delay 0.6;
          poll "poll after twice the idle timeout";
          Unix.shutdown fd Unix.SHUTDOWN_SEND;
          match Wire.recv_server fd with
          | _ -> Alcotest.fail "reply after the status connection closed"
          | exception Wire.Closed -> ());
      Alcotest.(check int) "cluster.sessions_failed" 0
        (Metrics.value
           (Metrics.counter (Coordinator.metrics coord) "cluster.sessions_failed")))

let test_cluster_counts_session_traffic () =
  (* one session that heartbeats and outruns a small credit window: the
     coordinator counts what vyrdd counts on the same protocol *)
  let log = buggy_log () in
  with_cluster ~window:16 (fun coord _sup ->
      let t =
        Client.connect ~level:(Log.level log) ~batch_events:8 (Coordinator.addr coord)
      in
      Client.heartbeat t;
      Log.iter (Client.send t) log;
      (match Client.finish t with
      | Client.Checked _ -> ()
      | Client.Spilled _ -> Alcotest.fail "cluster session spilled");
      let m = Coordinator.metrics coord in
      List.iter
        (fun name ->
          Alcotest.(check bool) (name ^ " counted") true
            (Metrics.value (Metrics.counter m name) > 0))
        [ "cluster.credits_granted"; "cluster.heartbeats" ];
      Alcotest.(check bool) "cluster.batch_events observed" true
        (Metrics.hist_count (Metrics.histogram m "cluster.batch_events") > 0))

let test_cluster_heartbeat_drop_feeds_once () =
  (* the dead worker's leg fails at a forwarded heartbeat, so the next
     batch opens the replacement leg: that leg replays the spool, and the
     batch must reach it once — not once in the replay and once more on
     the wire *)
  let log =
    Harness.run
      { Harness.default with threads = 4; ops_per_thread = 40; log_level = `View }
      (subject.Subjects.build ~bug:false)
  in
  let dir = temp_dir "vyrd_hb_failover" in
  let sup = Supervisor.start ~count:2 ~dir ~shards () in
  let metrics = Metrics.create () in
  let coord =
    Coordinator.start
      (Coordinator.config ~metrics
         ~addr:(Wire.Unix_socket (Filename.concat dir "vyrdc.sock"))
         ~spool_dir:(Filename.concat dir "spool") ())
  in
  Fun.protect
    ~finally:(fun () ->
      Coordinator.stop ~deadline:5. coord;
      Supervisor.stop sup;
      rm_rf (Filename.concat dir "spool");
      rm_rf dir)
    (fun () ->
      let w0_name, w0_addr = List.nth (Supervisor.workers sup) 0 in
      let w1_name, w1_addr = List.nth (Supervisor.workers sup) 1 in
      Coordinator.attach coord ~name:w0_name ~addr:w0_addr;
      let t =
        Client.connect ~level:(Log.level log) ~batch_events:16 (Coordinator.addr coord)
      in
      let evs = Log.snapshot log in
      let half = Array.length evs / 2 in
      Client.send_batch t (Array.sub evs 0 half);
      (* barrier: the first half is on w0 before it dies *)
      ignore (Client.request_checkpoint t);
      Supervisor.kill sup w0_name;
      Client.heartbeat t;
      Coordinator.attach coord ~name:w1_name ~addr:w1_addr;
      Client.send_batch t (Array.sub evs half (Array.length evs - half));
      match Client.finish t with
      | Client.Spilled _ -> Alcotest.fail "failover session spilled"
      | Client.Checked { report; fail_index } ->
          Alcotest.(check bool) "clean run still passes" true (Report.is_pass report);
          Alcotest.(check (option int)) "no fail index" None fail_index;
          Alcotest.(check bool) "the heartbeat dropped the leg" true
            (Metrics.value (Metrics.counter metrics "cluster.reassignments") >= 1))

let suite =
  [
    Alcotest.test_case "ring: deterministic placement" `Quick test_ring_deterministic;
    Alcotest.test_case "ring: basics" `Quick test_ring_basics;
    qcheck prop_ring_balance;
    qcheck prop_ring_remap_add;
    qcheck prop_ring_remap_remove;
    Alcotest.test_case "member: bounded-load placement" `Quick test_member_bounded_load;
    Alcotest.test_case "metrics: merge units" `Quick test_merge_units;
    Alcotest.test_case "metrics: merge kind mismatch" `Quick test_merge_kind_mismatch;
    Alcotest.test_case "metrics: encode roundtrip" `Quick test_encode_roundtrip;
    qcheck prop_merge_commutative;
    qcheck prop_merge_associative;
    Alcotest.test_case "metrics: json validator sanity" `Quick test_json_validator_sanity;
    Alcotest.test_case "metrics: merged json is valid" `Quick test_merged_json_is_valid;
    Alcotest.test_case "cluster: verdict matches offline" `Quick
      test_cluster_verdict_matches_offline;
    Alcotest.test_case "cluster: routes across workers" `Quick
      test_cluster_routes_across_workers;
    Alcotest.test_case "cluster: kill-a-worker failover" `Quick
      test_cluster_failover_preserves_verdict;
    Alcotest.test_case "cluster: failover resumes from checkpoint" `Quick
      test_cluster_failover_resumes_from_checkpoint;
    Alcotest.test_case "cluster: drain reroutes" `Quick test_cluster_drain_reroutes;
    Alcotest.test_case "cluster: killed worker respawns and rejoins" `Quick
      test_cluster_respawn_rejoins;
    Alcotest.test_case "cluster: spools reclaimed" `Quick test_cluster_spools_reclaimed;
    Alcotest.test_case "cluster: status scrape" `Quick test_cluster_status_scrape;
    Alcotest.test_case "cluster: status connections are not sessions" `Quick
      test_cluster_status_connection_not_a_session;
    Alcotest.test_case "cluster: sessions count credits, heartbeats, batch sizes" `Quick
      test_cluster_counts_session_traffic;
    Alcotest.test_case "cluster: a leg dropped at a heartbeat feeds each batch once"
      `Quick test_cluster_heartbeat_drop_feeds_once;
  ]
