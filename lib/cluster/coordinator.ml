module Wire = Vyrd_net.Wire
module Client = Vyrd_net.Client
module Listener = Vyrd_net.Listener
module Segment = Vyrd_pipeline.Segment
module Metrics = Vyrd_pipeline.Metrics
module Bincodec = Vyrd_pipeline.Bincodec

type config = {
  c_addr : Wire.addr;
  c_window : int;
  c_spool_dir : string;
  c_checkpoint_events : int;
  c_worker_slots : int;
  c_idle_timeout : float;
  c_keep_spools : bool;
  c_vnodes : int;
  c_seed : int;
  c_metrics : Metrics.t;
}

let config ?(window = 8192) ?(checkpoint_events = 25_000) ?(worker_slots = 4)
    ?(idle_timeout = 30.) ?(keep_spools = false) ?(vnodes = 128) ?(seed = 0) ?metrics
    ~addr ~spool_dir () =
  if window <= 0 then invalid_arg "Coordinator.config: window";
  if worker_slots <= 0 then invalid_arg "Coordinator.config: worker_slots";
  let metrics = match metrics with Some m -> m | None -> Metrics.create () in
  {
    c_addr = addr;
    c_window = window;
    c_spool_dir = spool_dir;
    c_checkpoint_events = checkpoint_events;
    c_worker_slots = worker_slots;
    c_idle_timeout = idle_timeout;
    c_keep_spools = keep_spools;
    c_vnodes = vnodes;
    c_seed = seed;
    c_metrics = metrics;
  }

type t = {
  cfg : config;
  listener : Listener.t;
  mutable health_thread : Thread.t option;
  members : Member.t;
  ctrl_lock : Mutex.t;  (** serializes RPCs on workers' control connections *)
  m_routed : Metrics.counter;
  m_leg_failures : Metrics.counter;
  m_reassignments : Metrics.counter;
  m_resumes : Metrics.counter;
  m_resume_replayed : Metrics.counter;
  m_resume_from_ck : Metrics.counter;
  m_checkpoints : Metrics.counter;
  m_attached : Metrics.counter;
  m_dead : Metrics.counter;
  m_drained : Metrics.counter;
  m_workers_peak : Metrics.gauge;
}

let with_ctrl t f =
  Mutex.lock t.ctrl_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.ctrl_lock) f

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

let addr t = Listener.addr t.listener
let metrics t = t.cfg.c_metrics
let sessions t = Listener.sessions t.listener
let active t = Listener.active t.listener
let workers t = Member.workers t.members
let ring t = Member.ring t.members

(* {1 Worker control connections} *)

let dial addr =
  let domain =
    match addr with
    | Wire.Unix_socket _ -> Unix.PF_UNIX
    | Wire.Tcp _ -> Unix.PF_INET
  in
  let fd = Unix.socket ~cloexec:true domain Unix.SOCK_STREAM 0 in
  try
    Unix.connect fd (Wire.sockaddr_of_addr addr);
    fd
  with e ->
    close_quietly fd;
    raise e

(* One-shot health probe on a fresh connection — used to distinguish "the
   worker died" from "one session's leg hiccupped" before declaring a
   worker dead and remapping everything it owns. *)
let probe addr =
  match dial addr with
  | exception (Unix.Unix_error _ | Not_found) -> None
  | fd ->
      let result =
        try
          Unix.setsockopt_float fd Unix.SO_RCVTIMEO 2.0;
          Wire.send_client fd Wire.Status_request;
          match Wire.recv_server fd with
          | Wire.Status st -> Some st
          | _ -> None
        with
        | Unix.Unix_error _ | Wire.Closed | Wire.Timeout | Bincodec.Corrupt _
        ->
          None
      in
      close_quietly fd;
      result

let note_dead t (w : Member.worker) =
  if w.w_state <> Member.Dead then begin
    Member.mark t.members w.w_name Member.Dead;
    Metrics.incr t.m_dead
  end;
  (match w.w_ctrl with Some fd -> close_quietly fd | None -> ());
  w.w_ctrl <- None

let scrape t (w : Member.worker) (st : Wire.status) =
  (try w.w_metrics <- Some (Metrics.decode st.st_metrics)
   with Bincodec.Corrupt _ -> ());
  if st.st_draining && w.w_state = Member.Alive then
    Member.mark t.members w.w_name Member.Draining

let attach ?slots t ~name ~addr =
  let slots = match slots with Some s -> s | None -> t.cfg.c_worker_slots in
  (* the worker's socket may not be bound yet when a cluster boots *)
  let rec dial_retry n =
    match dial addr with
    | fd -> fd
    | exception (Unix.Unix_error _ | Not_found) when n > 0 ->
        Thread.delay 0.05;
        dial_retry (n - 1)
  in
  let fd = dial_retry 40 in
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 2.0;
  (match
     Wire.send_client fd (Wire.Register name);
     Wire.recv_server fd
   with
  | Wire.Status st ->
      let w = Member.add t.members ~name ~addr ~slots in
      w.w_ctrl <- Some fd;
      scrape t w st;
      Metrics.incr t.m_attached;
      Metrics.record t.m_workers_peak (List.length (Member.workers t.members))
  | _ ->
      close_quietly fd;
      raise (Bincodec.Corrupt "register: unexpected reply")
  | exception e ->
      close_quietly fd;
      raise e)

(* RPC on the worker's persistent control connection; any failure demotes
   the worker to Dead (the probe path is for data legs, where one session's
   trouble should not condemn the worker — here the control channel itself
   broke). *)
let ctrl_rpc t (w : Member.worker) msg =
  with_ctrl t (fun () ->
      match w.w_ctrl with
      | None -> None
      | Some fd -> (
          match
            Wire.send_client fd msg;
            Wire.recv_server fd
          with
          | Wire.Status st ->
              scrape t w st;
              Some st
          | _ ->
              note_dead t w;
              None
          | exception
              ( Unix.Unix_error _ | Wire.Closed | Wire.Timeout
              | Bincodec.Corrupt _ ) ->
              note_dead t w;
              None))

(* Cluster-wide view: the coordinator's own cluster.* registry merged with
   every worker's registry.  Reachable workers are re-scraped on the spot;
   dead ones contribute their last-seen snapshot, so finished work is not
   forgotten with its worker. *)
let aggregate t =
  List.iter
    (fun (w : Member.worker) ->
      if w.w_state <> Member.Dead then ignore (ctrl_rpc t w Wire.Status_request))
    (Member.workers t.members);
  let into = Metrics.create () in
  Metrics.merge ~into t.cfg.c_metrics;
  List.iter
    (fun (w : Member.worker) ->
      match w.w_metrics with Some m -> Metrics.merge ~into m | None -> ())
    (Member.workers t.members);
  into

let drain t name =
  match Member.find t.members name with
  | None -> ()
  | Some w ->
      (match ctrl_rpc t w Wire.Drain with
      | Some _ -> ()
      | None -> ());
      if w.w_state = Member.Alive then Member.mark t.members name Member.Draining;
      Metrics.incr t.m_drained

(* seconds between health polls *)
let health_period = 1.0

(* [SO_RCVTIMEO]/[SO_SNDTIMEO] on worker legs: a hung worker surfaces as a
   leg failure instead of pinning the session *)
let leg_timeout = 60.

let health_loop t =
  while not (Listener.stopping t.listener) do
    List.iter
      (fun (w : Member.worker) ->
        if w.w_state <> Member.Dead then ignore (ctrl_rpc t w Wire.Status_request))
      (Member.workers t.members);
    (* sleep in slices so stop doesn't wait out a full period *)
    let slept = ref 0.0 in
    while !slept < health_period && not (Listener.stopping t.listener) do
      Thread.delay 0.05;
      slept := !slept +. 0.05
    done
  done

(* {1 Session proxying} *)

type leg = { l_client : Client.t; l_worker : Member.worker }

exception No_live_workers

(* Open a leg for [key]: bounded-load ring placement, connect, and — when
   the session already streamed events — replay the coordinator spool into
   the fresh worker session before any new batch flows.  The spool is the
   source of truth: it was appended before every forward, so a replayed
   session can never have lost events (a short replay is detected and fails
   the session rather than risking a wrong verdict). *)
let open_leg t ~key ~level ~writer =
  let avoid = ref [] in
  let dead_since = ref None in
  let rec loop () =
    if Listener.forcing t.listener then
      raise (Bincodec.Corrupt "coordinator is stopping");
    match Member.acquire t.members ~key ~avoid:!avoid with
    | Some w -> (
        match Client.connect ~level ~producer:"vyrdc" w.Member.w_addr with
        | c -> (
            Client.set_timeout c leg_timeout;
            match
              let spooled = Segment.writer_events writer in
              if spooled > 0 then begin
                Segment.flush writer;
                let path = List.hd (Segment.writer_files writer) in
                let events, resumed_at, replayed =
                  Client.resume_session c ~path
                in
                if events <> spooled then
                  raise
                    (Bincodec.Corrupt
                       (Printf.sprintf
                          "failover replay recovered %d of %d events" events
                          spooled));
                Metrics.incr t.m_resumes;
                Metrics.add t.m_resume_replayed replayed;
                if resumed_at <> None then Metrics.incr t.m_resume_from_ck
              end
            with
            | () ->
                Metrics.incr t.m_routed;
                { l_client = c; l_worker = w }
            | exception e ->
                Client.close c;
                Member.release t.members w;
                raise e)
        | exception Client.Server_error _ ->
            (* refused the hello (draining, most likely): reachable but not
               accepting — stop routing to it, don't declare it dead *)
            Member.release t.members w;
            Member.mark t.members w.w_name Member.Draining;
            loop ()
        | exception (Unix.Unix_error _ | Not_found | Wire.Closed | Wire.Timeout)
          ->
            Member.release t.members w;
            (match probe w.Member.w_addr with
            | None -> note_dead t w
            | Some st ->
                scrape t w st;
                avoid := w.w_name :: !avoid);
            loop ())
    | None ->
        if !avoid <> [] then begin
          (* every candidate got blamed this round — give them another shot
             rather than failing a session over transient leg errors *)
          avoid := [];
          Thread.delay 0.05;
          loop ()
        end
        else if Member.alive t.members = [] then begin
          (match !dead_since with
          | None -> dead_since := Some (Unix.gettimeofday ())
          | Some since ->
              if Unix.gettimeofday () -. since > 5.0 then raise No_live_workers);
          Thread.delay 0.05;
          loop ()
        end
        else begin
          (* live workers exist but every slot is busy: wait one out *)
          dead_since := None;
          Thread.delay 0.02;
          loop ()
        end
  in
  loop ()

let close_leg t leg =
  Client.close leg.l_client;
  Member.release t.members leg.l_worker

(* A data leg failed mid-session.  Probe the worker on a fresh connection:
   unreachable means dead (remap everything), reachable means this was a
   session-local hiccup (resume elsewhere, leave the worker in the ring). *)
let drop_leg t leg =
  Metrics.incr t.m_leg_failures;
  close_leg t leg;
  match probe leg.l_worker.Member.w_addr with
  | None -> note_dead t leg.l_worker
  | Some st -> scrape t leg.l_worker st

(* What a worker leg raises when it fails mid-session. *)
let leg_failure = function
  | Client.Server_error _ | Unix.Unix_error _ | Wire.Closed | Wire.Timeout
  | Bincodec.Corrupt _ ->
      true
  | _ -> false

(* A client session spools every batch, then forwards it over a leg to
   its worker; [close] closes the leg and reclaims the spool of a verdicted
   session. *)
let data_sink t (s : Listener.session) (hello : Wire.hello) =
  if Listener.stopping t.listener then
    raise (Bincodec.Corrupt "coordinator is stopping");
  let level = hello.Wire.h_level in
  let key = Printf.sprintf "session-%06d" s.id in
  if not (Sys.file_exists t.cfg.c_spool_dir) then
    (try Unix.mkdir t.cfg.c_spool_dir 0o755 with Unix.Unix_error _ -> ());
  let spool =
    Filename.concat t.cfg.c_spool_dir (Printf.sprintf "vyrdc-%06d.seg" s.id)
  in
  let writer = Segment.create_writer ~level spool in
  let leg = ref None in
  let clean = ref false in
  let ensure_leg () =
    match !leg with
    | Some l -> l
    | None ->
        let l =
          try open_leg t ~key ~level ~writer
          with No_live_workers ->
            raise (Bincodec.Corrupt "no live workers in the cluster")
        in
        leg := Some l;
        l
  in
  let reassign l =
    drop_leg t l;
    leg := None;
    Metrics.incr t.m_reassignments
  in
  (* idempotent RPCs (checkpoint barriers, finish): safe to retry on a
     fresh leg, because the reopening resume replays the spool first *)
  let rec forwarding ?(attempts = 5) f =
    let l = ensure_leg () in
    match f l.l_client with
    | v -> v
    | exception e when leg_failure e ->
        reassign l;
        if attempts <= 1 then raise e;
        forwarding ~attempts:(attempts - 1) f
  in
  let last_ck = ref 0 in
  (* a barrier snapshot covering the whole spool is appended to it *)
  let checkpoint () =
    let events, state = forwarding Client.request_checkpoint in
    (match state with
    | Some repr when events = Segment.writer_events writer ->
        Segment.append_checkpoint writer repr;
        last_ck := Segment.writer_events writer;
        Metrics.incr t.m_checkpoints
    | _ -> ());
    state
  in
  let maybe_checkpoint () =
    if
      t.cfg.c_checkpoint_events > 0
      && Segment.writer_events writer - !last_ck >= t.cfg.c_checkpoint_events
    then begin
      ignore (checkpoint () : Vyrd.Repr.t option);
      (* advance the cursor even on None so a non-snapshottable farm is not
         re-asked every batch *)
      last_ck := Segment.writer_events writer
    end
  in
  (* [evs.(0 .. n - 1)] may be the reader's array: spooled and forwarded
     (both encode synchronously) before the next [recv] reuses it *)
  let batch evs n =
    (* the leg opens before the batch is spooled: a leg opened after would
       replay the batch from the spool and then receive it again *)
    let l = ensure_leg () in
    (* spool before forward: the spool must be a superset of whatever
       any worker ever saw, or failover could lose events *)
    for i = 0 to n - 1 do
      Segment.append writer evs.(i)
    done;
    (* batches are NOT idempotent: the failed batch is already in the
       spool, so the reopening resume replays it into the replacement
       worker — re-sending it on the wire would feed those events twice *)
    (try Client.send_batch ~len:n l.l_client evs
     with e when leg_failure e ->
       reassign l;
       ignore (ensure_leg ()));
    maybe_checkpoint ()
  in
  (* keep the worker leg alive along with the client session *)
  let heartbeat () =
    match !leg with
    | Some l -> (
        try Client.heartbeat l.l_client with e when leg_failure e -> reassign l)
    | None -> ()
  in
  let finish ~events =
    Segment.flush writer;
    let outcome = forwarding Client.finish in
    (match !leg with
    | Some l ->
        Member.release t.members l.l_worker;
        leg := None
    | None -> ());
    clean := true;
    match outcome with
    | Client.Checked { report; fail_index } ->
        { Wire.v_report = report; v_fail_index = fail_index; v_events = events;
          v_spilled = None }
    | Client.Spilled { path; events } -> Wire.spilled_verdict ~events path
  in
  let close () =
    Option.iter (close_leg t) !leg;
    leg := None;
    (try Segment.close writer with Invalid_argument _ -> ());
    (* spools of verdicted sessions are pure replay insurance — reclaim
       them; failed sessions keep theirs for forensics *)
    if !clean && not t.cfg.c_keep_spools then
      List.iter
        (fun p -> try Sys.remove p with Sys_error _ -> ())
        (Segment.writer_files writer);
    ignore
  in
  { Listener.spilling = false; batch; heartbeat; checkpoint; resume = None; finish; close }

let status t =
  let live = active t in
  {
    Wire.st_draining = Listener.stopping t.listener;
    st_active = live;
    st_checking = live;
    st_metrics = Metrics.encode (aggregate t);
  }

let start cfg =
  if not (Sys.file_exists cfg.c_spool_dir) then Unix.mkdir cfg.c_spool_dir 0o755;
  let listener =
    Listener.bind ~family:"cluster" ~metrics:cfg.c_metrics
      ~idle_timeout:cfg.c_idle_timeout ~window:cfg.c_window cfg.c_addr
  in
  let m = cfg.c_metrics in
  let t =
    {
      cfg;
      listener;
      health_thread = None;
      members = Member.create ~vnodes:cfg.c_vnodes ~seed:cfg.c_seed ();
      ctrl_lock = Mutex.create ();
      m_routed = Metrics.counter m "cluster.sessions_routed";
      m_leg_failures = Metrics.counter m "cluster.leg_failures";
      m_reassignments = Metrics.counter m "cluster.reassignments";
      m_resumes = Metrics.counter m "cluster.resumes";
      m_resume_replayed = Metrics.counter m "cluster.resume_replayed";
      m_resume_from_ck = Metrics.counter m "cluster.resume_from_checkpoint";
      m_checkpoints = Metrics.counter m "cluster.checkpoints";
      m_attached = Metrics.counter m "cluster.workers_attached";
      m_dead = Metrics.counter m "cluster.workers_dead";
      m_drained = Metrics.counter m "cluster.workers_drained";
      m_workers_peak = Metrics.gauge m "cluster.workers_peak";
    }
  in
  Listener.serve listener
    {
      Listener.data = data_sink t;
      status = (fun () -> status t);
      control = (fun _ -> false);
    };
  t.health_thread <- Some (Thread.create health_loop t);
  t

let stop ?deadline t =
  Listener.stop ?deadline t.listener;
  Option.iter Thread.join t.health_thread;
  with_ctrl t (fun () ->
      List.iter
        (fun (w : Member.worker) ->
          Option.iter close_quietly w.w_ctrl;
          w.w_ctrl <- None)
        (Member.workers t.members))
