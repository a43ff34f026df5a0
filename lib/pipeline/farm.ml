open Vyrd
module Tid = Vyrd_sched.Tid
module Owners = Hashtbl.Make (String)

type shard = {
  sh_name : string;
  sh_spec : Spec.t;
  sh_mode : Checker.mode;
  sh_view : View.t option;
  sh_invariants : Checker.invariant list;
}

let shard ?(mode = `Io) ?view ?(invariants = []) name spec =
  { sh_name = name; sh_spec = spec; sh_mode = mode; sh_view = view;
    sh_invariants = invariants }

type shard_result = {
  sr_name : string;
  sr_report : Report.t;
  sr_fail_index : int option;
  sr_high_water : int;
  sr_stall_ns : int;
  sr_events : int;
}

type result = {
  merged : Report.t;
  shards : shard_result list;
  fed : int;
  analysis : Vyrd_analysis.Pass.summary list;
}

(* ------------------------------------------------------------ lane pool *)

(* Every lane runs on a domain of one process-wide pool.  A lane takes a
   parked domain when there is one and spawns a domain otherwise; when it
   ends, its domain parks for the next lane unless [parked_cap] are parked
   already, and exits instead.  A parked domain sleeps on a condition
   variable, but it still takes part in every stop-the-world minor
   collection of the process, so the cap holds one domain fewer than the
   cores (the feeding thread keeps one).  Parked domains end with the
   process. *)

(* How a lane ended: its result, or what it raised. *)
type 'a outcome = ('a, exn * Printexc.raw_backtrace) Stdlib.result

(* A parked domain sleeps on its own slot until [submit] hands it a job. *)
type worker = { mutable job : (unit -> unit -> unit) option; wake : Condition.t }

let parked_cap = max 1 (Domain.recommended_domain_count () - 1)
let pool_lock = Mutex.create ()
let parked : worker list ref = ref []

(* A job runs its lane and returns the step that publishes the lane's
   outcome.  The domain decides to park or exit before it publishes, so a
   caller that waits for the outcome and then starts the next farm finds
   the domain already parked. *)
let rec work w job =
  let publish = job () in
  let park =
    Mutex.protect pool_lock (fun () ->
        let park = List.length !parked < parked_cap in
        if park then parked := w :: !parked;
        park)
  in
  publish ();
  if park then
    work w
      (Mutex.protect pool_lock (fun () ->
           while Option.is_none w.job do
             Condition.wait w.wake pool_lock
           done;
           let next = Option.get w.job in
           w.job <- None;
           next))

(* [spawns] and [reuses] are the starting farm's counters. *)
let submit ~spawns ~reuses job =
  let woken =
    Mutex.protect pool_lock (fun () ->
        match !parked with
        | w :: rest ->
          parked := rest;
          w.job <- Some job;
          Condition.signal w.wake;
          true
        | [] -> false)
  in
  if woken then Metrics.incr reuses
  else begin
    (* nothing joins a pool domain: it publishes every outcome itself *)
    ignore (Domain.spawn (fun () -> work { job = None; wake = Condition.create () } job));
    Metrics.incr spawns
  end

(* Run [f] on a pool domain; its outcome arrives on the returned queue. *)
let run_on ~spawns ~reuses f =
  let reply = Squeue.create () in
  submit ~spawns ~reuses (fun () ->
      let outcome =
        match f () with v -> Ok v | exception e -> Error (e, Printexc.get_raw_backtrace ())
      in
      fun () -> Squeue.push reply outcome);
  reply

(* Lane traffic: indexed events, plus checkpoint barriers.  A [Snap] token
   travels the ring like any event, so when a lane answers it has consumed
   exactly the events routed before the barrier.  [Snap] also fills free
   ring and slice slots. *)
type msg = Ev of int * Event.t | Snap

(* One lane, checker or analysis: its ring, the router-side pending slice,
   and where its outcome arrives.  Events accumulate in the slice and enter
   the ring through one [Ring.push_batch] per [route_batch] events, instead
   of one mutex handshake each.  Only the routing thread touches the
   slice.  A checker lane's outcome is its report, fail index and event
   count; the analysis lane's is its pass summaries. *)
type 'r lane = {
  l_ring : msg Ring.t;
  l_buf : msg array;
  mutable l_pending : int;
  l_done : 'r outcome Squeue.t;
}

(* The analysis lane runs the incremental passes over the {e whole} stream
   in global feed order.  Checker lanes only see the events their checkers
   consume (reads and lock events are skipped at the router), so the passes
   — which exist precisely to look at lock events — get a lane of their
   own.  It takes no part in the checkpoint barrier: pass state is not
   checkpointed, so after a restore the passes see only the resumed suffix
   (documented as advisory). *)
type t = {
  shards : shard array;
  lanes : (Report.t * int option * int) lane array;
  analysis : Vyrd_analysis.Pass.summary list lane option;
  snaps : (int * Repr.t option) Squeue.t;  (* barrier answers: lane index, snapshot *)
  owners : int Owners.t;  (* method -> lane, for the names some lane knows *)
  current : int Tid.Tbl.t;  (* thread -> lane of its open call, or [no_call] *)
  mutable fed : int;
  mutable fed_unsynced : int;  (* events not yet folded into [m_events] *)
  mutable commits_unsynced : int;  (* commits not yet folded into [m_commits] *)
  metrics : Metrics.t;
  m_events : Metrics.counter;
  m_commits : Metrics.counter;
  m_skipped : Metrics.counter;
  mutable logs : Log.t list;  (* attached logs, for the dropped-by-level count *)
  mutable finished : result outcome option;
}

(* A thread's routing entry between a return and its next call: the entry
   is overwritten in place, not removed and rebuilt. *)
let no_call = -1

(* Batch granularity for the per-shard checking-latency histogram. *)
let batch = 4096

(* Router-side pending-slice size.  Big enough to amortize the ring mutex
   to noise, small enough that the extra in-flight buffering per lane stays
   negligible next to the ring capacity. *)
let route_batch = 256

(* Every lane's drain loop: one lock acquisition pops a whole slice of the
   ring.  [step] takes each event, [slice] the count of each slice's events,
   and [result] makes the outcome once the ring is closed and drained.  A
   lane whose [step] raises stops stepping but keeps draining, so the feeder
   never blocks on it; the exception surfaces from {!finish}.  A checker
   lane answers each barrier through [barrier] — [None] once it has raised;
   the analysis lane has no [barrier] and ignores them. *)
let drain ?barrier ring ~step ~slice ~result =
  let raised = ref None in
  let scratch = Array.make route_batch Snap in
  let rec loop () =
    let n = Ring.pop_batch ring scratch in
    if n = 0 then
      match !raised with
      | Some (e, bt) -> Printexc.raise_with_backtrace e bt
      | None -> result ()
    else begin
      let evs = ref 0 in
      for k = 0 to n - 1 do
        (match scratch.(k) with
        | Ev (idx, ev) -> (
          incr evs;
          match !raised with
          | Some _ -> ()
          | None -> (
            try step idx ev with e -> raised := Some (e, Printexc.get_raw_backtrace ())))
        | Snap -> (
          match barrier with
          | None -> ()
          | Some (answer, snapshot) ->
            answer (match !raised with None -> snapshot () | Some _ -> None)));
        scratch.(k) <- Snap
      done;
      slice !evs;
      loop ()
    end
  in
  loop ()

let consume snaps index (sh : shard) checker ring metrics =
  let hist = Metrics.histogram metrics ("farm.batch_ns." ^ sh.sh_name) in
  let checked = Metrics.counter metrics "farm.events_checked" in
  let fail = ref None in
  let count = ref 0 in
  let since = ref 0 in
  let t0 = ref (Mclock.now_ns ()) in
  drain ring
    ~barrier:((fun st -> Squeue.push snaps (index, st)), fun () -> Checker.snapshot checker)
    ~step:(fun idx ev ->
      match Checker.feed checker ev with
      | Some _ when Option.is_none !fail -> fail := Some idx
      | _ -> ())
    ~slice:(fun evs ->
      count := !count + evs;
      Metrics.add checked evs;
      since := !since + evs;
      if !since >= batch then begin
        let t1 = Mclock.now_ns () in
        Metrics.observe hist (t1 - !t0);
        t0 := t1;
        since := 0
      end)
    ~result:(fun () -> (Checker.report checker, !fail, !count))

let consume_analysis (passes : Vyrd_analysis.Pass.t list) ring metrics =
  let fed = Metrics.counter metrics "analysis.events" in
  let rec feed_all ev = function
    | [] -> ()
    | (p : Vyrd_analysis.Pass.t) :: rest ->
      p.feed ev;
      feed_all ev rest
  in
  drain ring
    ~step:(fun _ ev -> feed_all ev passes)
    ~slice:(Metrics.add fed)
    ~result:(fun () -> List.map (fun (p : Vyrd_analysis.Pass.t) -> p.finish ()) passes)

let format_tag = "farm/1"

(* A farm checkpoint is the router state plus every lane's checker
   snapshot: [fed | current thread->lane routing | (name, state) lanes]. *)
let parse_restore shards repr =
  match Ckpt.list (Ckpt.untag format_tag repr) with
  | [ fed; current; lane_states ] ->
    let fed = Ckpt.int fed in
    if fed < 0 then Ckpt.malformed "farm snapshot: negative event cursor";
    let n = List.length shards in
    let current =
      List.map
        (fun p ->
          let tid, lane = Ckpt.pair p in
          let lane = Ckpt.int lane in
          if lane < 0 || lane >= n then
            Ckpt.malformed "farm snapshot: routing entry to lane %d of %d" lane n;
          (Ckpt.int tid, lane))
        (Ckpt.list current)
    in
    let lane_states =
      List.map
        (fun p ->
          let name, st = Ckpt.pair p in
          (Ckpt.str name, st))
        (Ckpt.list lane_states)
    in
    if List.length lane_states <> n then
      Ckpt.malformed "farm snapshot: %d lane states for %d shards"
        (List.length lane_states) n;
    List.iter2
      (fun sh (name, _) ->
        if not (String.equal sh.sh_name name) then
          Ckpt.malformed "farm snapshot: lane %S where shard %S runs" name sh.sh_name)
      shards lane_states;
    (fed, current, List.map snd lane_states)
  | _ -> Ckpt.malformed "farm snapshot: bad payload shape"

let start ?(capacity = 4096) ?metrics ?restore ?(passes = []) ~level shards =
  if shards = [] then invalid_arg "Farm.start: no shards";
  List.iter
    (fun sh ->
      match sh.sh_mode with
      | `Io -> ()
      | `View ->
        if sh.sh_view = None then
          invalid_arg
            (Printf.sprintf "Farm.start: `View shard %S has no view definition"
               sh.sh_name);
        (match level with
        | `None | `Io ->
          invalid_arg
            (Printf.sprintf
               "Farm.start: `View shard %S cannot check a log recorded below \
                level `View"
               sh.sh_name)
        | `View | `Full -> ()))
    shards;
  let metrics = match metrics with Some m -> m | None -> Metrics.create () in
  let restore = Option.map (parse_restore shards) restore in
  (* checkers are built (and restored) here in the caller, not in the
     spawned domains, so a malformed checkpoint raises synchronously and
     the caller can fall back before any domain exists *)
  let checkers =
    List.map
      (fun sh ->
        Checker.create ~mode:sh.sh_mode ?view:sh.sh_view
          ~invariants:sh.sh_invariants sh.sh_spec)
      shards
  in
  (match restore with
  | Some (_, _, states) -> List.iter2 Checker.restore checkers states
  | None -> ());
  let spawns = Metrics.counter metrics "farm.lane_spawns"
  and reuses = Metrics.counter metrics "farm.lane_reuses" in
  (* a lane that cannot start (no domain left) ends the ones already
     running, so no domain is left blocked on a ring nobody will close *)
  let rings = ref [] in
  let start_lane drain_ring =
    let ring = Ring.create ~capacity Snap in
    match run_on ~spawns ~reuses (fun () -> drain_ring ring) with
    | l_done ->
      rings := ring :: !rings;
      { l_ring = ring; l_buf = Array.make route_batch Snap; l_pending = 0; l_done }
    | exception e ->
      List.iter Ring.close !rings;
      raise e
  in
  let snaps = Squeue.create () in
  let lanes =
    Array.of_list
      (List.mapi
         (fun i (sh, checker) -> start_lane (fun ring -> consume snaps i sh checker ring metrics))
         (List.combine shards checkers))
  in
  let analysis =
    match passes with
    | [] -> None
    | passes ->
      Metrics.record
        (Metrics.gauge metrics "analysis.passes")
        (List.length passes);
      Some (start_lane (fun ring -> consume_analysis passes ring metrics))
  in
  let t =
    {
      shards = Array.of_list shards;
      lanes;
      analysis;
      snaps;
      owners = Owners.create 64;
      current = Tid.Tbl.create 16;
      fed = (match restore with Some (fed, _, _) -> fed | None -> 0);
      fed_unsynced = 0;
      commits_unsynced = 0;
      metrics;
      m_events = Metrics.counter metrics "farm.events_fed";
      m_commits = Metrics.counter metrics "farm.commits";
      m_skipped = Metrics.counter metrics "farm.events_skipped";
      logs = [];
      finished = None;
    }
  in
  (match restore with
  | Some (_, current, _) ->
    List.iter (fun (tid, lane) -> Tid.Tbl.replace t.current tid lane) current
  | None -> ());
  t

(* Which lane's specification knows [mid]?  First match wins, exactly like
   Spec_compose routing.  Each known name is resolved once and remembered,
   because a [meth] probe costs an exception on every miss.  Unknown names
   go to lane 0, whose checker reports the ill-formed log; they are not
   remembered, so the table holds only names some specification knows.
   With one shard every name goes to lane 0, so nothing is looked up. *)
let owner t mid =
  let n = Array.length t.shards in
  if n = 1 then 0
  else
    match Owners.find t.owners mid with
    | i -> i
    | exception Not_found ->
      let rec probe i =
        if i >= n then 0
        else
          let module S = (val t.shards.(i).sh_spec : Spec.S) in
          match S.meth mid with
          | (_ : S.meth) ->
            Owners.add t.owners mid i;
            i
          | exception Invalid_argument _ -> probe (i + 1)
      in
      probe 0

let flush_lane l =
  if l.l_pending > 0 then begin
    Ring.push_batch l.l_ring ~len:l.l_pending l.l_buf;
    l.l_pending <- 0
  end

(* Fold the counts routed since the last sync into the registry. *)
let sync_counters t =
  if t.fed_unsynced > 0 then begin
    Metrics.add t.m_events t.fed_unsynced;
    t.fed_unsynced <- 0
  end;
  if t.commits_unsynced > 0 then begin
    Metrics.add t.m_commits t.commits_unsynced;
    t.commits_unsynced <- 0
  end

let flush t =
  Array.iter flush_lane t.lanes;
  Option.iter flush_lane t.analysis;
  sync_counters t

let push l m =
  l.l_buf.(l.l_pending) <- m;
  l.l_pending <- l.l_pending + 1;
  if l.l_pending = Array.length l.l_buf then flush_lane l

(* The lane of [tid]'s open call, or [no_call].  With one lane every event
   goes to lane 0 whatever the answer, so there is nothing to look up;
   [current] is still kept, for checkpoints. *)
let open_call t tid =
  if Array.length t.lanes = 1 then 0
  else match Tid.Tbl.find t.current tid with i -> i | exception Not_found -> no_call

(* The one box of event [idx], shared by every lane it goes to: the
   analysis lane, which sees the whole stream in feed order, gets it here. *)
let boxed t idx ev =
  let m = Ev (idx, ev) in
  (match t.analysis with Some a -> push a m | None -> ());
  m

let feed t ev =
  (match t.finished with
  | Some _ -> invalid_arg "Farm.feed: farm already finished"
  | None -> ());
  let idx = t.fed in
  t.fed <- idx + 1;
  (* the events-fed and commit counters are synced in slices, like the
     rings *)
  t.fed_unsynced <- t.fed_unsynced + 1;
  if t.fed_unsynced >= route_batch then sync_counters t;
  match ev with
  | Event.Call { tid; mid; _ } ->
    let i = owner t mid in
    Tid.Tbl.replace t.current tid i;
    push t.lanes.(i) (boxed t idx ev)
  | Event.Return { tid; mid; _ } ->
    let i = open_call t tid in
    Tid.Tbl.replace t.current tid no_call;
    push t.lanes.(if i = no_call then owner t mid else i) (boxed t idx ev)
  | Event.Commit { tid } ->
    t.commits_unsynced <- t.commits_unsynced + 1;
    let i = open_call t tid in
    (* commit outside any execution: lane 0's checker reports it *)
    push t.lanes.(if i = no_call then 0 else i) (boxed t idx ev)
  | Event.Write { tid; _ } | Event.Block_begin { tid } | Event.Block_end { tid } ->
    let i = open_call t tid in
    let m = boxed t idx ev in
    if i <> no_call then push t.lanes.(i) m
    else
      (* no open call: structure initialization (or a daemon outside a
         logged method) — every shard's shadow replay needs to see it *)
      for i = 0 to Array.length t.lanes - 1 do
        push t.lanes.(i) m
      done
  | Event.Read _ | Event.Acquire _ | Event.Release _ -> (
    (* consumed by no refinement checker (only by the analysis lane) *)
    Metrics.incr t.m_skipped;
    match t.analysis with Some a -> push a (Ev (idx, ev)) | None -> ())

let feed_batch t evs =
  (* same routing decisions as event-by-event [feed]; the per-lane pending
     slices turn the whole array into a handful of [Ring.push_batch]es *)
  Array.iter (feed t) evs

let attach t log =
  t.logs <- log :: t.logs;
  Log.subscribe log (feed t)

let events_fed t = t.fed

(* Barrier checkpoint: a [Snap] token goes down every ring, so each lane
   answers only after consuming everything routed before it — together the
   lane snapshots cover exactly the first [t.fed] events of the stream.
   Call from the feeding thread (or a log listener), like {!feed}. *)
let checkpoint t =
  match t.finished with
  | Some _ -> None
  | None ->
    (* pending slices must reach the rings first, so the barrier token sits
       after every event routed before it — mid-batch and batch-boundary
       checkpoints are indistinguishable *)
    flush t;
    Array.iter (fun l -> Ring.push l.l_ring Snap) t.lanes;
    let n = Array.length t.lanes in
    let states = Array.make n None in
    for _ = 1 to n do
      let i, st = Squeue.pop t.snaps in
      states.(i) <- st
    done;
    if Array.exists Option.is_none states then None
      (* some lane cannot snapshot (violation found, or the spec declines) *)
    else begin
      let current =
        Tid.Tbl.fold
          (fun tid lane acc -> if lane = no_call then acc else (tid, lane) :: acc)
          t.current []
        |> List.sort compare
        |> List.map (fun (tid, lane) -> Repr.Pair (Repr.Int tid, Repr.Int lane))
      in
      let lane_states =
        Array.to_list
          (Array.mapi
             (fun i st -> Repr.Pair (Repr.Str t.shards.(i).sh_name, Option.get st))
             states)
      in
      Some
        (Ckpt.tagged format_tag
           (Repr.List [ Repr.Int t.fed; Repr.List current; Repr.List lane_states ]))
    end

(* Deterministic merge: the violation whose triggering event has the lowest
   global index wins, ties broken by shard order — independent of how the
   checker domains were scheduled. *)
let merge lanes_results =
  let stats =
    List.fold_left
      (fun (acc : Report.stats) (sr : shard_result) ->
        {
          Report.events_processed =
            acc.Report.events_processed
            + sr.sr_report.Report.stats.Report.events_processed;
          methods_checked =
            acc.Report.methods_checked
            + sr.sr_report.Report.stats.Report.methods_checked;
          commits_resolved =
            acc.Report.commits_resolved
            + sr.sr_report.Report.stats.Report.commits_resolved;
          per_method =
            acc.Report.per_method @ sr.sr_report.Report.stats.Report.per_method;
          queue_high_water = max acc.Report.queue_high_water sr.sr_high_water;
        })
      {
        Report.events_processed = 0;
        methods_checked = 0;
        commits_resolved = 0;
        per_method = [];
        queue_high_water = 0;
      }
      lanes_results
  in
  let stats = { stats with Report.per_method = List.sort compare stats.Report.per_method } in
  let first =
    List.fold_left
      (fun acc sr ->
        match (sr.sr_fail_index, sr.sr_report.Report.outcome) with
        | Some idx, Report.Fail v -> (
          match acc with
          | Some (best, _) when best <= idx -> acc
          | _ -> Some (idx, v))
        | _ -> acc)
      None lanes_results
  in
  let outcome =
    match first with Some (_, v) -> Report.Fail v | None -> Report.Pass
  in
  { Report.outcome; stats }

let min_fail_index (r : result) =
  List.fold_left
    (fun acc sr ->
      match (acc, sr.sr_fail_index) with
      | Some a, Some b -> Some (min a b)
      | None, x | x, None -> x)
    None r.shards

let value = function Ok v -> v | Error (e, bt) -> Printexc.raise_with_backtrace e bt

(* The merged result from every lane's outcome, folded into the metrics
   registry; raises the first lane's exception in lane order, the analysis
   lane's last, before anything is recorded. *)
let collect t lanes analysis =
  let results =
    Array.to_list
      (Array.mapi
         (fun i l ->
           let report, fail_idx, consumed = value lanes.(i) in
           {
             sr_name = t.shards.(i).sh_name;
             sr_report = report;
             sr_fail_index = fail_idx;
             sr_high_water = Ring.high_water l.l_ring;
             sr_stall_ns = Ring.stall_ns l.l_ring;
             sr_events = consumed;
           })
         t.lanes)
  in
  let summaries = Option.map value analysis in
  let merged = merge results in
  (* fold the end-of-run readings into the metrics registry *)
  let stall = Metrics.counter t.metrics "farm.stall_ns" in
  let violations = Metrics.counter t.metrics "farm.violations" in
  List.iter
    (fun sr ->
      Metrics.record
        (Metrics.gauge t.metrics ("farm.high_water." ^ sr.sr_name))
        sr.sr_high_water;
      Metrics.add stall sr.sr_stall_ns;
      if not (Report.is_pass sr.sr_report) then Metrics.incr violations)
    results;
  let dropped = Metrics.counter t.metrics "log.events_dropped_by_level" in
  List.iter (fun log -> Metrics.add dropped (Log.dropped log)) t.logs;
  let analysis =
    match summaries with
    | None -> []
    | Some summaries ->
      let errors = Metrics.counter t.metrics "analysis.errors" in
      let warnings = Metrics.counter t.metrics "analysis.warnings" in
      List.iter
        (fun (s : Vyrd_analysis.Pass.summary) ->
          Metrics.add errors s.errors;
          Metrics.add warnings s.warnings;
          Metrics.record
            (Metrics.gauge t.metrics ("analysis.errors." ^ s.pass))
            s.errors)
        summaries;
      summaries
  in
  { merged; shards = results; fed = t.fed; analysis }

let finish t =
  match t.finished with
  | Some r -> value r
  | None ->
    flush t;
    (* every ring closes before the first wait, so a lane that raised
       cannot strand the others in [pop_batch] *)
    let close l = Ring.close l.l_ring and wait l = Squeue.pop l.l_done in
    Array.iter close t.lanes;
    Option.iter close t.analysis;
    let lanes = Array.map wait t.lanes in
    let analysis = Option.map wait t.analysis in
    let r =
      match collect t lanes analysis with
      | r -> Ok r
      | exception e -> Error (e, Printexc.get_raw_backtrace ())
    in
    t.finished <- Some r;
    value r
