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

(* One method execution, from its call to the verdict on it.  The one
   record serves every role the execution plays: its thread's open call
   until the return, a queued commit awaiting its specification transition
   (transitions happen in commit order; [x_ret] arrives with the return
   event) and, for an execution that returned without committing, a
   pending observer whose eligible state ordinals are [x_start..x_end]
   (Fig. 7), with [x_next] the next one to test. *)
type 'm exec = {
  x_tid : Tid.t;
  x_slot : 'm slot;
  x_args : Repr.t list;
  x_start : int;  (* commits logged when the call was made *)
  mutable x_committed : bool;
  mutable x_returned : bool;
  mutable x_ret : Repr.t;  (* the return value, once [x_returned] *)
  mutable x_view_i : Repr.t option;  (* viewI snapshot taken at the commit action *)
  mutable x_end : int;
  mutable x_next : int;
}

let exec tid slot args start =
  { x_tid = tid; x_slot = slot; x_args = args; x_start = start; x_committed = false;
    x_returned = false; x_ret = Repr.Unit; x_view_i = None; x_end = start;
    x_next = start }

type invariant = string * (View.lookup -> bool)

let memo_size = 64
let memo_probes = 4

(* A memo slot from a name's length and three of its characters: cheap, and
   spread enough that two hot names rarely share a slot. *)
let memo_index mid =
  let n = String.length mid in
  if n < 2 then n
  else
    ((n * 31) + (Char.code (String.unsafe_get mid 0) * 7)
     + (Char.code (String.unsafe_get mid 1) * 3)
     + Char.code (String.unsafe_get mid (n - 1)))
    land (memo_size - 1)

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
  let resolve_name mid =
    match Names.find methods mid with
    | slot -> slot
    | exception Not_found ->
      let m = Sp.meth mid in
      let slot = { s_name = mid; s_meth = m; s_kind = Sp.kind m; s_count = 0 } in
      Names.add methods mid slot;
      slot
  in
  (* Names arrive physically shared — decoders intern them and instrumented
     programs pass literals — so a memo of the strings already resolved,
     compared with [==], answers a call without hashing the name.  The memo
     is open-addressed over a few slots from [memo_index]; a name that finds
     them all taken by other strings (or by other copies of itself) goes to
     the table. *)
  let memo = Array.make memo_size None in
  let rec probe mid h k =
    if k = memo_probes then resolve_name mid
    else
      match Array.unsafe_get memo h with
      | Some (name, slot) when name == mid -> slot
      | Some _ -> probe mid ((h + 1) land (memo_size - 1)) (k + 1)
      | None ->
        let slot = resolve_name mid in
        Array.unsafe_set memo h (Some (mid, slot));
        slot
  in
  let slot_of mid = probe mid (memo_index mid) 0 in

  (* [execs] maps a thread to a cell holding its latest execution, which is
     its open call unless it has returned; the cell is overwritten at the
     next call.  [calls] holds executions in call order, returned ones dropped
     from the front; [commits] holds committed executions in commit order
     until their transitions resolve; [observers] holds executions that
     returned without committing and still wait for a matching state. *)
  let execs : Sp.meth exec ref Tid.Tbl.t = Tid.Tbl.create 16 in
  let calls : Sp.meth exec Vec.t = Vec.create () in
  let commits : Sp.meth exec Vec.t = Vec.create () in
  let observers : Sp.meth exec Vec.t = Vec.create () in
  (* [tid]'s open execution; raises [Not_found] when it has none *)
  let open_exec tid =
    let x = !(Tid.Tbl.find execs tid) in
    if x.x_returned then raise_notrace Not_found else x
  in
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
  let rec step_observer o =
    if o.x_next > o.x_end then begin
      fail
        (Report.Observer_violation
           { exec = exec_of o.x_tid o.x_slot o.x_args (Some o.x_ret);
             window = (o.x_start, o.x_end) });
      true
    end
    else if o.x_next > !commits_resolved then false (* wait for more resolutions *)
    else if Sp.observe (state_at o.x_next) ~mid:o.x_slot.s_meth ~args:o.x_args ~ret:o.x_ret
    then begin
      count_method o.x_slot;
      true
    end
    else begin
      o.x_next <- o.x_next + 1;
      step_observer o
    end
  in
  let prune_states () =
    (* keep from the lowest index any live observer may still test — either
       a pending observer's cursor or the window start of an execution that
       has not returned yet; the current state is always retained.  Only a
       return can raise that index (it closes an execution, resolves
       commits and retires observers), so [on_return] calls this last.
       Window starts grow in call order, so the lowest start of an open
       execution is the oldest open call's: returned calls leave the front
       of [calls] here, each once. *)
    let closed = ref 0 in
    while !closed < Vec.length calls && (Vec.get calls !closed).x_returned do
      incr closed
    done;
    if !closed > 0 then Vec.drop_prefix calls !closed;
    if !state_base < !commits_resolved then begin
      let lowest = ref !commits_resolved in
      for i = 0 to Vec.length observers - 1 do
        let next = (Vec.get observers i).x_next in
        if next < !lowest then lowest := next
      done;
      if Vec.length calls > 0 then lowest := Int.min !lowest (Vec.get calls 0).x_start;
      if !lowest > !state_base then begin
        Vec.drop_prefix state_window (!lowest - !state_base);
        state_base := !lowest
      end
    end
  in
  let advance_observers () =
    let i = ref 0 in
    while clean () && !i < Vec.length observers do
      if step_observer (Vec.get observers !i) then ignore (Vec.swap_remove observers !i)
      else incr i
    done
  in

  (* The last viewI/viewS pair that compared equal: the next pair shares
     most of its subtrees (memoized view components on one side, a
     product's unchanged component views on the other), so it is compared
     against this one with [Repr.equal_since].  Views are immutable, so
     the pair stays a valid reference across a mismatch or a restore. *)
  let last_view_i = ref Repr.Unit and last_view_s = ref Repr.Unit in
  (* Resolve specification transitions for committed executions whose return
     value has arrived, in commit order. *)
  let rec resolve () =
    if clean () && Vec.length commits > 0 then begin
      let x = Vec.get commits 0 in
      if x.x_returned then begin
        Vec.drop_prefix commits 1;
        let ordinal = !commits_resolved + 1 in
        let cur = state_at !commits_resolved in
        match Sp.apply cur ~mid:x.x_slot.s_meth ~args:x.x_args ~ret:x.x_ret with
        | Error reason ->
          fail
            (Report.Io_violation
               { exec = exec_of x.x_tid x.x_slot x.x_args (Some x.x_ret);
                 commit_ordinal = ordinal; reason })
        | Ok next ->
          push_state (Sp.snapshot next);
          commits_resolved := ordinal;
          (match x.x_view_i with
          | Some view_i ->
            let view_s = Sp.view next in
            if Repr.equal_since !last_view_i !last_view_s view_i view_s then begin
              last_view_i := view_i;
              last_view_s := view_s
            end
            else
              fail
                (Report.View_violation
                   { exec = exec_of x.x_tid x.x_slot x.x_args (Some x.x_ret);
                     commit_ordinal = ordinal; view_i; view_s })
          | None -> ());
          if clean () then begin
            count_method x.x_slot;
            advance_observers ();
            resolve ()
          end
      end
    end
  in

  (* a new execution; raises [Invalid_argument] for an unknown method *)
  let start tid mid args =
    let x = exec tid (slot_of mid) args !commits_logged in
    Vec.push calls x;
    x
  in
  let on_call ev tid mid args =
    match Tid.Tbl.find execs tid with
    | { contents = x } when not x.x_returned ->
      ill_formed ~event:ev
        (Printf.sprintf "%s called %s while %s is still executing"
           (Tid.to_string tid) mid x.x_slot.s_name)
    | cur -> (
      match start tid mid args with
      | x -> cur := x
      | exception Invalid_argument m -> ill_formed ~event:ev m)
    | exception Not_found -> (
      match start tid mid args with
      | x -> Tid.Tbl.add execs tid (ref x)
      | exception Invalid_argument m -> ill_formed ~event:ev m)
  in

  let on_commit ev tid =
    match open_exec tid with
    | exception Not_found ->
      ill_formed ~event:ev
        (Tid.to_string tid ^ " committed outside any method execution")
    | x -> (
      match (x.x_slot.s_kind, x.x_committed) with
      | Spec.Observer, _ ->
        ill_formed ~event:ev
          (Printf.sprintf "observer %s carries a commit annotation" x.x_slot.s_name)
      | (Spec.Mutator | Spec.Internal), true ->
        ill_formed ~event:ev
          (Printf.sprintf "%s has two commit actions in one execution of %s"
             (Tid.to_string tid) x.x_slot.s_name)
      | (Spec.Mutator | Spec.Internal), false ->
        Replay.commit replay tid;
        (match view_eval with
        | Some e -> x.x_view_i <- Some (View.recompute e replay)
        | None -> ());
        (match invariants with
        | [] -> ()
        | _ -> (
          match List.find_opt broken invariants with
          | Some (name, _) ->
            fail
              (Report.Invariant_violation
                 { exec = exec_of tid x.x_slot x.x_args None;
                   commit_ordinal = !commits_logged + 1;
                   invariant = name })
          | None -> ()));
        incr commits_logged;
        x.x_committed <- true;
        Vec.push commits x)
  in

  let on_return ev tid mid value =
    match open_exec tid with
    | exception Not_found ->
      ill_formed ~event:ev (Tid.to_string tid ^ " returned from " ^ mid ^ " without a call")
    | x when not (String.equal x.x_slot.s_name mid) ->
      ill_formed ~event:ev
        (Printf.sprintf "%s returned from %s while executing %s" (Tid.to_string tid)
           mid x.x_slot.s_name)
    | x ->
      x.x_returned <- true;
      x.x_ret <- value;
      (match (x.x_slot.s_kind, x.x_committed) with
      | (Spec.Mutator | Spec.Internal), true -> resolve ()
      | (Spec.Mutator | Spec.Internal), false | Spec.Observer, _ ->
        (* An execution that never committed performed no transition: it is
           checked like an observer (window semantics).  The specification's
           [observe] rejects return values that would have required a
           mutation, so a genuinely missing commit annotation still
           surfaces as a violation. *)
        x.x_end <- !commits_logged;
        if not (step_observer x) then Vec.push observers x);
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
     checkpoint keeps its whole [x_start..x_end] window, §4.3), the shadow
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
        let enc_pc x =
          Repr.List
            [ Repr.Int x.x_tid; Repr.Str x.x_slot.s_name; Repr.List x.x_args;
              Repr.Int (kind_code x.x_slot.s_kind);
              Ckpt.of_opt (if x.x_returned then Some x.x_ret else None);
              Ckpt.of_opt x.x_view_i ]
        in
        let pcs = List.map enc_pc (Vec.to_list commits) in
        let oes =
          Tid.Tbl.fold (fun tid x acc -> if !x.x_returned then acc else (tid, !x) :: acc) execs []
          |> List.sort (fun (a, _) (b, _) -> Tid.compare a b)
          |> List.map (fun (tid, x) ->
                 Repr.List
                   [ Repr.Int tid; Repr.Str x.x_slot.s_name; Repr.List x.x_args;
                     Repr.Int (kind_code x.x_slot.s_kind); Repr.Int x.x_start;
                     Repr.Bool x.x_committed ])
        in
        let obs =
          List.map
            (fun o ->
              Repr.List
                [ Repr.Int o.x_tid; Repr.Str o.x_slot.s_name; Repr.List o.x_args;
                  Ckpt.of_opt (Some o.x_ret); Repr.Int o.x_start; Repr.Int o.x_end;
                  Repr.Int o.x_next ])
            (Vec.to_list observers)
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
          let x = exec (Ckpt.int tid) (slot_in mid ~kind) (Ckpt.list args) 0 in
          x.x_committed <- true;
          (match Ckpt.opt ret with
          | Some v ->
            x.x_returned <- true;
            x.x_ret <- v
          | None -> ());
          x.x_view_i <- Ckpt.opt view_i;
          x
        | _ -> Ckpt.malformed "checker snapshot: bad pending commit"
      in
      let pcs = List.map dec_pc (Ckpt.list pcs) in
      (* a pending commit whose return has not arrived belongs to exactly
         one still-open execution of the same thread: one record plays both *)
      let pc_by_tid = Tid.Tbl.create 8 in
      List.iter
        (fun x ->
          if not x.x_returned then begin
            if Tid.Tbl.mem pc_by_tid x.x_tid then
              Ckpt.malformed "checker snapshot: two open commits on %s"
                (Tid.to_string x.x_tid);
            Tid.Tbl.replace pc_by_tid x.x_tid x
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
          let slot = slot_in mid ~kind in
          if Ckpt.bool has_commit then (
            match Tid.Tbl.find_opt pc_by_tid tid with
            | Some pc when pc.x_slot == slot ->
              let x = { pc with x_start = start } in
              Tid.Tbl.replace pc_by_tid tid x;
              x
            | Some _ ->
              Ckpt.malformed "checker snapshot: open execution on %s commits another method"
                (Tid.to_string tid)
            | None ->
              Ckpt.malformed "checker snapshot: open execution on %s has no commit"
                (Tid.to_string tid))
          else exec tid slot (Ckpt.list args) start
        | _ -> Ckpt.malformed "checker snapshot: bad open execution"
      in
      let oes = List.map dec_oe (Ckpt.list oes) in
      let pcs =
        List.map (fun x -> if x.x_returned then x else Tid.Tbl.find pc_by_tid x.x_tid) pcs
      in
      let dec_ob r =
        match Ckpt.list r with
        | [ tid; mid; args; ret; start; end_; next ] ->
          let ret =
            match Ckpt.opt ret with
            | Some v -> v
            | None -> Ckpt.malformed "checker snapshot: observer without return value"
          in
          let o = exec (Ckpt.int tid) (slot_in mid) (Ckpt.list args) (Ckpt.int start) in
          o.x_returned <- true;
          o.x_ret <- ret;
          o.x_end <- Ckpt.int end_;
          o.x_next <- Ckpt.int next;
          if o.x_next < sb || o.x_next < o.x_start || o.x_end > cl then
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
      Vec.clear commits;
      List.iter (Vec.push commits) pcs;
      Tid.Tbl.reset execs;
      List.iter (fun x -> Tid.Tbl.replace execs x.x_tid (ref x)) oes;
      Vec.clear calls;
      Tid.Tbl.fold (fun _ x acc -> !x :: acc) execs []
      |> List.sort (fun a b -> Int.compare a.x_start b.x_start)
      |> List.iter (Vec.push calls);
      Vec.clear observers;
      List.iter (Vec.push observers) obs;
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

let check_indexed ?mode ?view ?invariants log spec =
  (match mode with Some `View -> require_view_level ~who:"Checker.check" log | _ -> ());
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

let check ?mode ?view ?invariants log spec =
  fst (check_indexed ?mode ?view ?invariants log spec)
