module Tid = Vyrd_sched.Tid

type exec = {
  x_tid : Tid.t;
  x_mid : string;
  x_args : Repr.t list;
  x_ret : Repr.t;
  x_kind : Spec.kind;
  x_call_at : int;
  x_ret_at : int;
  x_commit_at : int option;  (* log index of the commit action, if any *)
}

let ( let* ) = Result.bind
let fail fmt = Printf.ksprintf (fun m -> Error m) fmt

(* Phase 1: structure the log into method executions (§3.2 well-formedness
   and the §4.1 commit-annotation rules). *)
let executions (module Sp : Spec.S) events =
  let open_calls : (Tid.t, string * Repr.t list * int * int option) Hashtbl.t =
    Hashtbl.create 16
  in
  let rec go i acc = function
    | [] -> Ok (List.rev acc)
    | ev :: rest -> (
      match ev with
      | Event.Call { tid; mid; args } ->
        if Hashtbl.mem open_calls tid then
          fail "event %d: %s calls %s inside another execution" i
            (Tid.to_string tid) mid
        else (
          match Sp.kind (Sp.meth mid) with
          | _ ->
            Hashtbl.replace open_calls tid (mid, args, i, None);
            go (i + 1) acc rest
          | exception Invalid_argument m -> Error m)
      | Event.Commit { tid } -> (
        match Hashtbl.find_opt open_calls tid with
        | None -> fail "event %d: %s commits outside any execution" i (Tid.to_string tid)
        | Some (mid, _, _, Some _) ->
          fail "event %d: second commit in %s's execution of %s" i (Tid.to_string tid)
            mid
        | Some (mid, args, call_at, None) ->
          if Sp.kind (Sp.meth mid) = Spec.Observer then
            fail "event %d: observer %s carries a commit annotation" i mid
          else begin
            Hashtbl.replace open_calls tid (mid, args, call_at, Some i);
            go (i + 1) acc rest
          end)
      | Event.Return { tid; mid; value } -> (
        match Hashtbl.find_opt open_calls tid with
        | None ->
          fail "event %d: %s returns from %s without a call" i (Tid.to_string tid) mid
        | Some (mid', _, _, _) when mid' <> mid ->
          fail "event %d: %s returns from %s while executing %s" i (Tid.to_string tid)
            mid mid'
        | Some (_, args, call_at, commit_at) ->
          Hashtbl.remove open_calls tid;
          let x =
            { x_tid = tid; x_mid = mid; x_args = args; x_ret = value;
              x_kind = Sp.kind (Sp.meth mid); x_call_at = call_at; x_ret_at = i;
              x_commit_at = commit_at }
          in
          go (i + 1) (x :: acc) rest)
      | Event.Write _ | Event.Block_begin _ | Event.Block_end _ | Event.Read _
      | Event.Acquire _ | Event.Release _ -> go (i + 1) acc rest)
  in
  go 0 [] events

(* The shadow state after the first [upto] events, rebuilt from scratch
   (exclusive bound). *)
let shadow_at events ~upto =
  let replay = Replay.create () in
  List.iteri
    (fun i ev ->
      if i < upto then
        match ev with
        | Event.Write { tid; var; value } -> Replay.write replay tid var value
        | Event.Block_begin { tid } -> Replay.block_begin replay tid
        | Event.Block_end { tid } -> Replay.block_end replay tid
        | Event.Commit { tid } -> Replay.commit replay tid
        | _ -> ())
    events;
  replay

(* Number of elements of the sorted array [a] strictly below [x]. *)
let count_below a x =
  let lo = ref 0 and hi = ref (Array.length a) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if a.(mid) < x then lo := mid + 1 else hi := mid
  done;
  !lo

let check ?view log spec =
  let module Sp = (val spec : Spec.S) in
  let events = Log.events log in
  let* execs = executions (module Sp) events in
  let committed =
    List.filter (fun x -> x.x_commit_at <> None) execs
    |> List.sort (fun a b -> compare a.x_commit_at b.x_commit_at)
  in
  (* Phase 2: fold the specification along the witness interleaving,
     checking viewI = viewS at every commit when a view is given. *)
  let* states =
    (* states.(i) = state after i commits; returned in reverse fold order *)
    List.fold_left
      (fun acc x ->
        let* states = acc in
        let current = List.hd states in
        match Sp.apply current ~mid:(Sp.meth x.x_mid) ~args:x.x_args ~ret:x.x_ret with
        | Error reason ->
          fail "commit of %s %s: %s" (Tid.to_string x.x_tid) x.x_mid reason
        | Ok next ->
          let next = Sp.snapshot next in
          let* () =
            match view with
            | None -> Ok ()
            | Some v ->
              let commit_at = Option.get x.x_commit_at in
              let replay =
                (* include the commit event itself so the committing
                   thread's block is published *)
                shadow_at events ~upto:(commit_at + 1)
              in
              let view_i = View.recompute (View.make_eval v) replay in
              let view_s = Sp.view next in
              if Repr.equal view_i view_s then Ok ()
              else
                fail "view mismatch at commit of %s %s: viewI %s, viewS %s"
                  (Tid.to_string x.x_tid) x.x_mid (Repr.to_string view_i)
                  (Repr.to_string view_s)
          in
          Ok (next :: states))
      (Ok [ Sp.snapshot (Sp.init ()) ])
      committed
  in
  let states = Array.of_list (List.rev states) in
  (* commit ordinal of the i-th committed execution = i + 1; map a log
     position to the number of commits at or before it *)
  let commit_positions =
    Array.of_list (List.map (fun x -> Option.get x.x_commit_at) committed)
  in
  let commits_before pos = count_below commit_positions pos in
  (* Phase 3: window checks for observers and non-committing executions. *)
  let check_window x =
    let lo = commits_before x.x_call_at in
    let hi = commits_before x.x_ret_at in
    let rec any i =
      i <= hi
      && (Sp.observe states.(i) ~mid:(Sp.meth x.x_mid) ~args:x.x_args ~ret:x.x_ret
         || any (i + 1))
    in
    if any lo then Ok ()
    else
      fail "no state in window [%d..%d] admits %s %s -> %s" lo hi
        (Tid.to_string x.x_tid) x.x_mid (Repr.to_string x.x_ret)
  in
  List.fold_left
    (fun acc x ->
      let* () = acc in
      if x.x_commit_at = None then check_window x else Ok ())
    (Ok ()) execs

let agrees_with_checker ?view log spec =
  let reference = Result.is_ok (check ?view log spec) in
  let fast =
    let mode = match view with None -> `Io | Some _ -> `View in
    Report.is_pass (Checker.check ~mode ?view log spec)
  in
  reference = fast

(* ------------------------------------------------------- indexed oracle

   [check_indexed] predicts not only the verdict but the exact log index at
   which the incremental checker first reports a violation, from first
   principles rather than by replaying the checker's own machinery.

   The detection model.  The checker resolves specification transitions in
   commit order, but a transition needs the method's return value, so commit
   ordinal [k] resolves at log index [r_k] = max over ordinals [j <= k] of
   the return position of [j]'s execution (a "resolution cascade" runs at
   each committed execution's return event).  Hence:

   - an Io or View violation at ordinal [k] is detected at [r_k];
   - an observer (or non-committing mutator) whose window is [lo..hi]
     fails at [max ret_at r_hi] — its own return, or the point where the
     last state of its window materialises — and only if every state in
     [lo..hi] rejects it, and commit [hi] actually resolves successfully
     (commits at or past the first unreturned commit, or at or past a
     failing ordinal, never resolve, so such observers pend forever);
   - a structural (ill-formedness) error stops the scan at its own index,
     and every refinement candidate derives from events strictly before it.

   Within one event the cascade resolves ordinal [j], then advances
   observers with window end [j], then resolves [j+1]; ties are therefore
   broken by (log index, commit ordinal, commit-before-observer). *)

type failure = { f_index : int; f_kind : string; f_detail : string }

let check_indexed ?view log spec =
  let module Sp = (val spec : Spec.S) in
  let events = Log.events log in
  let earr = Array.of_list events in
  let n = Array.length earr in
  (* Indexed well-formedness scan with a live shadow replay, mirroring the
     order of the checker's per-event checks; stops at the first error. *)
  let open_calls : (Tid.t, string * Repr.t list * int * int option ref) Hashtbl.t =
    Hashtbl.create 16
  in
  let execs = ref [] in
  let commit_list = ref [] in
  let replay = Replay.create () in
  let struct_err = ref None in
  let stop = ref false in
  let i = ref 0 in
  while (not !stop) && !i < n do
    let bad fmt =
      Printf.ksprintf
        (fun m ->
          struct_err := Some (!i, m);
          stop := true)
        fmt
    in
    (try
       match earr.(!i) with
       | Event.Call { tid; mid; args } -> (
         match Hashtbl.find_opt open_calls tid with
         | Some (mid', _, _, _) ->
           bad "%s calls %s inside an execution of %s" (Tid.to_string tid) mid mid'
         | None -> (
           match Sp.kind (Sp.meth mid) with
           | _ -> Hashtbl.replace open_calls tid (mid, args, !i, ref None)
           | exception Invalid_argument m -> bad "%s" m))
       | Event.Commit { tid } -> (
         match Hashtbl.find_opt open_calls tid with
         | None -> bad "%s commits outside any execution" (Tid.to_string tid)
         | Some (mid, _, _, commit_at) ->
           if Sp.kind (Sp.meth mid) = Spec.Observer then
             bad "observer %s carries a commit annotation" mid
           else if !commit_at <> None then
             bad "second commit in %s's execution of %s" (Tid.to_string tid) mid
           else begin
             Replay.commit replay tid;
             commit_at := Some !i;
             commit_list := !i :: !commit_list
           end)
       | Event.Return { tid; mid; value } -> (
         match Hashtbl.find_opt open_calls tid with
         | None -> bad "%s returns from %s without a call" (Tid.to_string tid) mid
         | Some (mid', _, _, _) when mid' <> mid ->
           bad "%s returns from %s while executing %s" (Tid.to_string tid) mid mid'
         | Some (_, args, call_at, commit_at) ->
           Hashtbl.remove open_calls tid;
           execs :=
             { x_tid = tid; x_mid = mid; x_args = args; x_ret = value;
               x_kind = Sp.kind (Sp.meth mid); x_call_at = call_at; x_ret_at = !i;
               x_commit_at = !commit_at }
             :: !execs)
       | Event.Write { tid; var; value } -> Replay.write replay tid var value
       | Event.Block_begin { tid } -> Replay.block_begin replay tid
       | Event.Block_end { tid } -> Replay.block_end replay tid
       | Event.Read _ | Event.Acquire _ | Event.Release _ -> ()
     with Replay.Ill_formed reason -> bad "%s" reason);
    incr i
  done;
  let execs = List.rev !execs in
  let commit_ats = Array.of_list (List.rev !commit_list) in
  let m = Array.length commit_ats in
  (* Map commit ordinals (1-based, in commit-event order) to their
     executions; an ordinal with no execution never returned. *)
  let exec_of_ord = Array.make (m + 1) None in
  List.iter
    (fun x ->
      match x.x_commit_at with
      | Some c -> exec_of_ord.(count_below commit_ats c + 1) <- Some x
      | None -> ())
    execs;
  let resolvable =
    let k = ref 0 in
    while !k < m && exec_of_ord.(!k + 1) <> None do
      incr k
    done;
    !k
  in
  (* r.(k) = log index at which ordinal k's transition resolves. *)
  let r = Array.make (resolvable + 1) (-1) in
  for k = 1 to resolvable do
    r.(k) <- max r.(k - 1) (Option.get exec_of_ord.(k)).x_ret_at
  done;
  (* Witness fold up to the first failing ordinal. *)
  let states = Array.make (resolvable + 1) (Sp.snapshot (Sp.init ())) in
  let fold_fail = ref None in
  let k_stop = ref (resolvable + 1) in
  let k = ref 1 in
  while !fold_fail = None && !k <= resolvable do
    let x = Option.get exec_of_ord.(!k) in
    (match Sp.apply states.(!k - 1) ~mid:(Sp.meth x.x_mid) ~args:x.x_args ~ret:x.x_ret with
    | Error reason ->
      fold_fail :=
        Some
          ( r.(!k), !k, "io",
            Printf.sprintf "commit %d of %s %s: %s" !k (Tid.to_string x.x_tid)
              x.x_mid reason );
      k_stop := !k
    | Ok next ->
      let next = Sp.snapshot next in
      states.(!k) <- next;
      (match view with
      | None -> ()
      | Some v ->
        let commit_at = Option.get x.x_commit_at in
        let shadow = shadow_at events ~upto:(commit_at + 1) in
        let view_i = View.recompute (View.make_eval v) shadow in
        let view_s = Sp.view next in
        if not (Repr.equal view_i view_s) then begin
          fold_fail :=
            Some
              ( r.(!k), !k, "view",
                Printf.sprintf "view mismatch at commit %d of %s %s: viewI %s, viewS %s"
                  !k (Tid.to_string x.x_tid) x.x_mid (Repr.to_string view_i)
                  (Repr.to_string view_s) );
          k_stop := !k
        end));
    incr k
  done;
  (* Observers advance only past successfully resolved commits. *)
  let obs_limit = !k_stop - 1 in
  let candidates = ref [] in
  (match !fold_fail with
  | Some (idx, ord, kind, detail) -> candidates := [ (idx, ord, 0, kind, detail) ]
  | None -> ());
  (match !struct_err with
  | Some (idx, detail) ->
    candidates := (idx, max_int, 0, "ill-formed", detail) :: !candidates
  | None -> ());
  List.iter
    (fun x ->
      if x.x_commit_at = None then begin
        let lo = count_below commit_ats x.x_call_at in
        let hi = count_below commit_ats x.x_ret_at in
        if hi <= obs_limit then begin
          let rec all_reject j =
            j > hi
            || ((not (Sp.observe states.(j) ~mid:(Sp.meth x.x_mid) ~args:x.x_args ~ret:x.x_ret))
               && all_reject (j + 1))
          in
          if all_reject lo then begin
            let idx = if hi = 0 then x.x_ret_at else max x.x_ret_at r.(hi) in
            candidates :=
              ( idx, hi, 1, "observer",
                Printf.sprintf "no state in window [%d..%d] admits %s %s -> %s" lo hi
                  (Tid.to_string x.x_tid) x.x_mid (Repr.to_string x.x_ret) )
              :: !candidates
          end
        end
      end)
    execs;
  match
    List.sort
      (fun (a1, a2, a3, _, _) (b1, b2, b3, _, _) -> compare (a1, a2, a3) (b1, b2, b3))
      !candidates
  with
  | [] -> Ok ()
  | (idx, _, _, kind, detail) :: _ ->
    Error { f_index = idx; f_kind = kind; f_detail = detail }

let agrees_with_checker_indexed ?view log spec =
  let mode = match view with None -> `Io | Some _ -> `View in
  let report, idx = Checker.check_indexed ~mode ?view log spec in
  match (check_indexed ?view log spec, Report.is_pass report) with
  | Ok (), true -> idx = None
  | Error f, false -> idx = Some f.f_index && Report.tag report = f.f_kind
  | _ -> false
