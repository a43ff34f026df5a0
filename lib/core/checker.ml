module Tid = Vyrd_sched.Tid
module Vec = Vyrd_sched.Vec

type mode = [ `Io | `View ]

type t = {
  c_feed : Event.t -> Report.violation option;
  c_report : unit -> Report.t;
  c_violation : unit -> Report.violation option;
  c_methods : unit -> int;
  c_projections : unit -> int;
  c_snapshot : unit -> Repr.t option;
  c_restore : Repr.t -> unit;
}

(* One method of the checked specification, resolved once per checker: the
   name as logged, the specification's handle, its kind, and how many of its
   executions have been checked. *)
type 'm slot = { s_name : string; s_meth : 'm; s_kind : Spec.kind; mutable s_count : int }

module Names = Hashtbl.Make (String)

(* One committed mutator execution waiting for its specification transition.
   Transitions happen in commit order; [ret] arrives with the method's
   return event. *)
type 'm pending_commit = {
  pc_tid : Tid.t;
  pc_slot : 'm slot;
  pc_args : Repr.t list;
  mutable pc_ret : Repr.t option;
  pc_view_i : Repr.t option;  (* viewI snapshot taken at the commit action *)
}

(* An observer whose return value still awaits a matching spec state.
   Eligible state ordinals are [o_start..o_end] (Fig. 7). *)
type 'm pending_observer = {
  o_tid : Tid.t;
  o_slot : 'm slot;
  o_args : Repr.t list;
  o_ret : Repr.t;
  o_start : int;
  o_end : int;
  mutable o_next : int;
}

type 'm open_exec = {
  oe_slot : 'm slot;
  oe_args : Repr.t list;
  oe_start : int;  (* commits logged when the call was made *)
  mutable oe_commit : 'm pending_commit option;
}

type invariant = string * (View.lookup -> bool)

(* Reports name the execution; the record is built only for a verdict. *)
let exec_of tid slot args ret : Report.exec =
  { e_tid = tid; e_mid = slot.s_name; e_args = args; e_ret = ret }

let create ?(mode = `Io) ?view ?(invariants = []) (spec : Spec.t) : t =
  let module Sp = (val spec) in
  let view_eval =
    match (mode, view) with
    | `Io, _ -> None
    | `View, Some v -> Some (View.make_eval v)
    | `View, None -> invalid_arg "Checker.create: `View mode requires a view definition"
  in
  (* Specification states are kept only while an observer window may still
     test them: [state_window] holds states [base .. base + length - 1],
     where index i is the state after the first i commits of the witness
     interleaving.  After every return event the prefix below the lowest
     live window is dropped (see [prune_states]), so a lane holds only the
     states some pending observer or open execution can still test. *)
  let state_window : Sp.state Vec.t = Vec.create () in
  let state_base = ref 0 in
  Vec.push state_window (Sp.snapshot (Sp.init ()));
  let state_at i =
    if i < !state_base then
      invalid_arg (Printf.sprintf "checker: state %d already pruned (base %d)" i !state_base)
    else Vec.get state_window (i - !state_base)
  in
  let push_state s = Vec.push state_window s in
  let replay = Replay.create () in
  let lookup = Replay.lookup replay in
  let broken (_, pred) = not (pred lookup) in
  (* The method table: a name is resolved by the specification on its
     first call and found here by every later one.  Unknown names are not
     kept, so they raise at every resolution. *)
  let methods : Sp.meth slot Names.t = Names.create 16 in
  let slot_of mid =
    match Names.find methods mid with
    | slot -> slot
    | exception Not_found ->
      let m = Sp.meth mid in
      let slot = { s_name = mid; s_meth = m; s_kind = Sp.kind m; s_count = 0 } in
      Names.add methods mid slot;
      slot
  in
  let open_execs : Sp.meth open_exec Tid.Tbl.t = Tid.Tbl.create 16 in
  let pending_commits : Sp.meth pending_commit Queue.t = Queue.create () in
  let pending_observers : Sp.meth pending_observer Vec.t = Vec.create () in
  let commits_logged = ref 0 in
  let commits_resolved = ref 0 in
  let events_processed = ref 0 in
  let methods_checked = ref 0 in
  let count_method slot =
    incr methods_checked;
    slot.s_count <- slot.s_count + 1
  in
  let violation = ref None in
  let clean () = match !violation with None -> true | Some _ -> false in
  let fail v = if clean () then violation := Some v in
  let ill_formed ?event reason = fail (Report.Ill_formed { event; reason }) in

  (* Advance one pending observer as far as current resolution allows;
     true when it reached a verdict and should be dropped. *)
  let step_observer o =
    let limit = Int.min !commits_resolved o.o_end in
    let rec go () =
      if o.o_next > o.o_end then begin
        fail
          (Report.Observer_violation
             { exec = exec_of o.o_tid o.o_slot o.o_args (Some o.o_ret);
               window = (o.o_start, o.o_end) });
        true
      end
      else if o.o_next > limit then false (* wait for more resolutions *)
      else if
        Sp.observe (state_at o.o_next) ~mid:o.o_slot.s_meth ~args:o.o_args ~ret:o.o_ret
      then begin
        count_method o.o_slot;
        true
      end
      else begin
        o.o_next <- o.o_next + 1;
        go ()
      end
    in
    go ()
  in
  let prune_states () =
    (* keep from the lowest index any live observer may still test — either
       a pending observer's cursor or the window start of an execution that
       has not returned yet; the current state is always retained.  Only a
       return can raise that index (it closes an execution, resolves
       commits and retires observers), so [on_return] calls this last. *)
    if !state_base < !commits_resolved then begin
      let lowest =
        Vec.fold_left
          (fun acc o -> if o.o_next < acc then o.o_next else acc)
          !commits_resolved pending_observers
      in
      let lowest =
        Tid.Tbl.fold
          (fun _ oe acc -> if oe.oe_start < acc then oe.oe_start else acc)
          open_execs lowest
      in
      if lowest > !state_base then begin
        Vec.drop_prefix state_window (lowest - !state_base);
        state_base := lowest
      end
    end
  in
  let advance_observers () =
    let i = ref 0 in
    while clean () && !i < Vec.length pending_observers do
      if step_observer (Vec.get pending_observers !i) then
        ignore (Vec.swap_remove pending_observers !i)
      else incr i
    done
  in

  (* Resolve specification transitions for committed executions whose return
     value has arrived, in commit order. *)
  let rec resolve () =
    match !violation with
    | Some _ -> ()
    | None when Queue.is_empty pending_commits -> ()
    | None -> (
      let pc = Queue.peek pending_commits in
      match pc.pc_ret with
      | None -> ()
      | Some ret -> (
        ignore (Queue.pop pending_commits);
        let ordinal = !commits_resolved + 1 in
        let cur = state_at !commits_resolved in
        match Sp.apply cur ~mid:pc.pc_slot.s_meth ~args:pc.pc_args ~ret with
        | Error reason ->
          fail
            (Report.Io_violation
               { exec = exec_of pc.pc_tid pc.pc_slot pc.pc_args pc.pc_ret;
                 commit_ordinal = ordinal; reason })
        | Ok next ->
          push_state (Sp.snapshot next);
          commits_resolved := ordinal;
          (match pc.pc_view_i with
          | Some view_i ->
            let view_s = Sp.view next in
            if not (Repr.equal view_i view_s) then
              fail
                (Report.View_violation
                   { exec = exec_of pc.pc_tid pc.pc_slot pc.pc_args pc.pc_ret;
                     commit_ordinal = ordinal; view_i; view_s })
          | None -> ());
          if clean () then begin
            count_method pc.pc_slot;
            advance_observers ();
            resolve ()
          end))
  in

  let on_call ev tid mid args =
    if Tid.Tbl.mem open_execs tid then
      ill_formed ~event:ev
        (Printf.sprintf "%s called %s while %s is still executing"
           (Tid.to_string tid) mid (Tid.Tbl.find open_execs tid).oe_slot.s_name)
    else
      match slot_of mid with
      | slot ->
        Tid.Tbl.add open_execs tid
          { oe_slot = slot; oe_args = args; oe_start = !commits_logged; oe_commit = None }
      | exception Invalid_argument m -> ill_formed ~event:ev m
  in

  let on_commit ev tid =
    match Tid.Tbl.find open_execs tid with
    | exception Not_found ->
      ill_formed ~event:ev
        (Tid.to_string tid ^ " committed outside any method execution")
    | oe -> (
      match (oe.oe_slot.s_kind, oe.oe_commit) with
      | Spec.Observer, _ ->
        ill_formed ~event:ev
          (Printf.sprintf "observer %s carries a commit annotation" oe.oe_slot.s_name)
      | (Spec.Mutator | Spec.Internal), Some _ ->
        ill_formed ~event:ev
          (Printf.sprintf "%s has two commit actions in one execution of %s"
             (Tid.to_string tid) oe.oe_slot.s_name)
      | (Spec.Mutator | Spec.Internal), None ->
        Replay.commit replay tid;
        let view_i =
          match view_eval with Some e -> Some (View.recompute e replay) | None -> None
        in
        (match invariants with
        | [] -> ()
        | _ -> (
          match List.find_opt broken invariants with
          | Some (name, _) ->
            fail
              (Report.Invariant_violation
                 { exec = exec_of tid oe.oe_slot oe.oe_args None;
                   commit_ordinal = !commits_logged + 1;
                   invariant = name })
          | None -> ()));
        incr commits_logged;
        let pc =
          { pc_tid = tid; pc_slot = oe.oe_slot; pc_args = oe.oe_args; pc_ret = None;
            pc_view_i = view_i }
        in
        Queue.push pc pending_commits;
        oe.oe_commit <- Some pc)
  in

  let on_return ev tid mid value =
    match Tid.Tbl.find open_execs tid with
    | exception Not_found ->
      ill_formed ~event:ev (Tid.to_string tid ^ " returned from " ^ mid ^ " without a call")
    | oe when not (String.equal oe.oe_slot.s_name mid) ->
      ill_formed ~event:ev
        (Printf.sprintf "%s returned from %s while executing %s" (Tid.to_string tid)
           mid oe.oe_slot.s_name)
    | oe ->
      Tid.Tbl.remove open_execs tid;
      (match (oe.oe_slot.s_kind, oe.oe_commit) with
      | (Spec.Mutator | Spec.Internal), Some pc ->
        pc.pc_ret <- Some value;
        resolve ()
      | (Spec.Mutator | Spec.Internal), None | Spec.Observer, _ ->
        (* An execution that never committed performed no transition: it is
           checked like an observer (window semantics).  The specification's
           [observe] rejects return values that would have required a
           mutation, so a genuinely missing commit annotation still
           surfaces as a violation. *)
        let o =
          { o_tid = tid; o_slot = oe.oe_slot; o_args = oe.oe_args; o_ret = value;
            o_start = oe.oe_start; o_end = !commits_logged; o_next = oe.oe_start }
        in
        if not (step_observer o) then Vec.push pending_observers o);
      prune_states ()
  in

  let feed ev =
    match !violation with
    | Some _ -> None
    | None ->
      incr events_processed;
      (try
         match ev with
         | Event.Call { tid; mid; args } -> on_call ev tid mid args
         | Event.Return { tid; mid; value } -> on_return ev tid mid value
         | Event.Commit { tid } -> on_commit ev tid
         | Event.Write { tid; var; value } -> Replay.write replay tid var value
         | Event.Block_begin { tid } -> Replay.block_begin replay tid
         | Event.Block_end { tid } -> Replay.block_end replay tid
         | Event.Read _ | Event.Acquire _ | Event.Release _ -> ()
       with Replay.Ill_formed reason -> ill_formed ~event:ev reason);
      !violation
  in
  (* ---------------------------------------------------------- checkpoints

     A snapshot captures everything [feed] consults: the witness cursor
     ([commits_logged]/[commits_resolved]), the retained specification-state
     window with its base ordinal, the commit queue, still-open method
     executions, pending observers (an observer whose call straddles the
     checkpoint keeps its whole [o_start..o_end] window, §4.3), the shadow
     replay including open commit blocks, and the statistics.  The keyed
     view cache is NOT serialized: restore resets it and the replay restore
     marks every variable dirty, so the first recomputation rebuilds it. *)
  let format_tag = "checker/1" in
  let kind_code = function Spec.Mutator -> 0 | Spec.Observer -> 1 | Spec.Internal -> 2 in
  (* a method name read back from a snapshot must resolve, and to the kind
     the snapshot recorded for it, if any *)
  let slot_in ?kind mid =
    let mid = Ckpt.str mid in
    match slot_of mid with
    | exception Invalid_argument m -> Ckpt.malformed "checker snapshot: %s" m
    | slot ->
      (match kind with
      | Some k when kind_code slot.s_kind <> Ckpt.int k ->
        Ckpt.malformed "checker snapshot: %s recorded with kind %d" mid (Ckpt.int k)
      | Some _ | None -> ());
      slot
  in
  (* per-method counts, sorted by name: the [Report.stats] field *)
  let per_method () =
    Names.fold
      (fun _ slot acc -> if slot.s_count > 0 then (slot.s_name, slot.s_count) :: acc else acc)
      methods []
    |> List.sort compare
  in
  let snapshot () =
    if not (clean ()) then None
    else
      match
        List.rev
          (Vec.fold_left
             (fun acc s ->
               match Sp.save s with Some r -> r :: acc | None -> raise_notrace Exit)
             [] state_window)
      with
      | exception Exit -> None (* the specification does not checkpoint *)
      | states ->
        let enc_pc pc =
          Repr.List
            [ Repr.Int pc.pc_tid; Repr.Str pc.pc_slot.s_name; Repr.List pc.pc_args;
              Repr.Int (kind_code pc.pc_slot.s_kind); Ckpt.of_opt pc.pc_ret;
              Ckpt.of_opt pc.pc_view_i ]
        in
        let pcs =
          List.rev (Queue.fold (fun acc pc -> enc_pc pc :: acc) [] pending_commits)
        in
        let oes =
          Tid.Tbl.fold (fun tid oe acc -> (tid, oe) :: acc) open_execs []
          |> List.sort (fun (a, _) (b, _) -> Tid.compare a b)
          |> List.map (fun (tid, oe) ->
                 Repr.List
                   [ Repr.Int tid; Repr.Str oe.oe_slot.s_name; Repr.List oe.oe_args;
                     Repr.Int (kind_code oe.oe_slot.s_kind); Repr.Int oe.oe_start;
                     Repr.Bool (Option.is_some oe.oe_commit) ])
        in
        let obs =
          List.rev
            (Vec.fold_left
               (fun acc o ->
                 Repr.List
                   [ Repr.Int o.o_tid; Repr.Str o.o_slot.s_name; Repr.List o.o_args;
                     Ckpt.of_opt (Some o.o_ret); Repr.Int o.o_start; Repr.Int o.o_end;
                     Repr.Int o.o_next ]
                 :: acc)
               [] pending_observers)
        in
        let pm =
          List.map (fun (mid, n) -> Repr.Pair (Repr.Str mid, Repr.Int n)) (per_method ())
        in
        Some
          (Ckpt.tagged format_tag
             (Repr.List
                [ Repr.Int !events_processed; Repr.Int !commits_logged;
                  Repr.Int !commits_resolved; Repr.Int !methods_checked;
                  Repr.List pm; Repr.Int !state_base; Repr.List states;
                  Repr.List pcs; Repr.List oes; Repr.List obs;
                  Replay.snapshot replay ]))
  in
  let restore repr =
    match Ckpt.list (Ckpt.untag format_tag repr) with
    | [ ep; cl; cr; mc; pm; sb; states; pcs; oes; obs; rp ] ->
      (* parse (and validate) everything before mutating, so most malformed
         checkpoints reject without touching the checker; resolving a name
         only fills the method table, which holds no checking state *)
      let ep = Ckpt.int ep and cl = Ckpt.int cl and cr = Ckpt.int cr in
      let mc = Ckpt.int mc and sb = Ckpt.int sb in
      let states =
        List.map
          (fun r ->
            match Sp.load r with
            | s -> s
            | exception Invalid_argument m ->
              Ckpt.malformed "checker snapshot: state load: %s" m)
          (Ckpt.list states)
      in
      if ep < 0 || sb < 0 || cr > cl || cr < sb then
        Ckpt.malformed "checker snapshot: inconsistent cursor counters";
      if List.length states <> cr - sb + 1 then
        Ckpt.malformed "checker snapshot: state window of %d states for ordinals %d..%d"
          (List.length states) sb cr;
      let dec_pc r =
        match Ckpt.list r with
        | [ tid; mid; args; kind; ret; view_i ] ->
          { pc_tid = Ckpt.int tid; pc_slot = slot_in mid ~kind; pc_args = Ckpt.list args;
            pc_ret = Ckpt.opt ret; pc_view_i = Ckpt.opt view_i }
        | _ -> Ckpt.malformed "checker snapshot: bad pending commit"
      in
      let pcs = List.map dec_pc (Ckpt.list pcs) in
      (* a pending commit whose return has not arrived belongs to exactly
         one still-open execution of the same thread: re-link the alias *)
      let pc_by_tid = Tid.Tbl.create 8 in
      List.iter
        (fun pc ->
          if Option.is_none pc.pc_ret then begin
            if Tid.Tbl.mem pc_by_tid pc.pc_tid then
              Ckpt.malformed "checker snapshot: two open commits on %s"
                (Tid.to_string pc.pc_tid);
            Tid.Tbl.replace pc_by_tid pc.pc_tid pc
          end)
        pcs;
      let dec_oe r =
        match Ckpt.list r with
        | [ tid; mid; args; kind; start; has_commit ] ->
          let tid = Ckpt.int tid in
          let start = Ckpt.int start in
          if start < sb then
            Ckpt.malformed "checker snapshot: execution window start %d below base %d"
              start sb;
          let commit =
            if Ckpt.bool has_commit then (
              match Tid.Tbl.find_opt pc_by_tid tid with
              | Some pc -> Some pc
              | None ->
                Ckpt.malformed "checker snapshot: open execution on %s has no commit"
                  (Tid.to_string tid))
            else None
          in
          ( tid,
            { oe_slot = slot_in mid ~kind; oe_args = Ckpt.list args; oe_start = start;
              oe_commit = commit } )
        | _ -> Ckpt.malformed "checker snapshot: bad open execution"
      in
      let oes = List.map dec_oe (Ckpt.list oes) in
      let dec_ob r =
        match Ckpt.list r with
        | [ tid; mid; args; ret; start; end_; next ] ->
          let ret =
            match Ckpt.opt ret with
            | Some v -> v
            | None -> Ckpt.malformed "checker snapshot: observer without return value"
          in
          let o =
            { o_tid = Ckpt.int tid; o_slot = slot_in mid; o_args = Ckpt.list args; o_ret = ret;
              o_start = Ckpt.int start; o_end = Ckpt.int end_; o_next = Ckpt.int next }
          in
          if o.o_next < sb || o.o_next < o.o_start || o.o_end > cl then
            Ckpt.malformed "checker snapshot: observer window outside retained states";
          o
        | _ -> Ckpt.malformed "checker snapshot: bad pending observer"
      in
      let obs = List.map dec_ob (Ckpt.list obs) in
      let pm =
        List.map
          (fun r ->
            let m, n = Ckpt.pair r in
            (slot_in m, Ckpt.int n))
          (Ckpt.list pm)
      in
      violation := None;
      events_processed := ep;
      commits_logged := cl;
      commits_resolved := cr;
      methods_checked := mc;
      Names.iter (fun _ slot -> slot.s_count <- 0) methods;
      List.iter (fun (slot, n) -> slot.s_count <- n) pm;
      state_base := sb;
      Vec.clear state_window;
      List.iter (Vec.push state_window) states;
      Queue.clear pending_commits;
      List.iter (fun pc -> Queue.push pc pending_commits) pcs;
      Tid.Tbl.reset open_execs;
      List.iter (fun (tid, oe) -> Tid.Tbl.replace open_execs tid oe) oes;
      Vec.clear pending_observers;
      List.iter (Vec.push pending_observers) obs;
      (* the restored replay reports every reader bit stale, so the view
         evaluator recomputes all its components at the next commit *)
      Replay.restore replay rp
    | _ -> Ckpt.malformed "checker snapshot: bad payload shape"
  in

  let report () : Report.t =
    let stats : Report.stats =
      { events_processed = !events_processed;
        methods_checked = !methods_checked;
        commits_resolved = !commits_resolved;
        per_method = per_method ();
        queue_high_water = 0 }
    in
    match !violation with
    | Some v -> { outcome = Report.Fail v; stats }
    | None -> { outcome = Report.Pass; stats }
  in
  {
    c_feed = feed;
    c_report = report;
    c_violation = (fun () -> !violation);
    c_methods = (fun () -> !methods_checked);
    c_projections =
      (fun () -> match view_eval with Some e -> View.projections e | None -> 0);
    c_snapshot = snapshot;
    c_restore = restore;
  }

let feed t ev = t.c_feed ev
let report t = t.c_report ()
let violation t = t.c_violation ()
let methods_checked t = t.c_methods ()
let view_projections t = t.c_projections ()
let snapshot t = t.c_snapshot ()
let restore t repr = t.c_restore repr

(* `View mode presumes write events: against a call/return/commit-only log
   the shadow replay stays empty and every mutation would surface as a
   spurious view mismatch.  Fail fast with a configuration error instead. *)
let require_view_level ~who log =
  if not (Log.records_writes log) then
    invalid_arg
      (Printf.sprintf
         "%s: `View mode requires a log recorded at level `View or `Full (this \
          log records at `%s); re-record the run at `View or check in `Io mode"
         who
         (match Log.level log with
         | `None -> "None"
         | `Io -> "Io"
         | `View -> "View"
         | `Full -> "Full"))

let check ?mode ?view ?invariants log spec =
  (match mode with Some `View -> require_view_level ~who:"Checker.check" log | _ -> ());
  let t = create ?mode ?view ?invariants spec in
  Log.iter (fun ev -> ignore (feed t ev)) log;
  report t

let check_indexed ?mode ?view ?invariants log spec =
  (match mode with
  | Some `View -> require_view_level ~who:"Checker.check_indexed" log
  | _ -> ());
  let t = create ?mode ?view ?invariants spec in
  let idx = ref 0 in
  let fail_at = ref None in
  Log.iter
    (fun ev ->
      (match feed t ev with
      | Some _ when !fail_at = None -> fail_at := Some !idx
      | _ -> ());
      incr idx)
    log;
  (report t, !fail_at)
