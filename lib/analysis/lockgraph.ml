open Vyrd
module Tid = Vyrd_sched.Tid

type meth = { mid : string; call_index : int }

type witness = {
  index : int;
  tid : Tid.t;
  held : string list;
  meth : meth option;
}

type edge = { src : string; dst : string; witnesses : witness list }
type cycle = { locks : string list; edges : edge list; chosen : witness list }

type result = {
  cycles : cycle list;
  locks : int;
  edges : int;
  acquires : int;
  events : int;
  suppressed_gated : int;
  suppressed_single_thread : int;
  graph : edge list;
}

(* Witnesses per edge: the first acquire per distinct thread, up to this many
   threads.  A thread's held set at a given acquire is determined by its own
   program order alone, so "first per tid" is stable under cross-thread
   reordering of the log. *)
let max_witnesses_per_edge = 8

(* Backstop for pathological graphs: stop enumerating once this many
   elementary cycles have been examined. *)
let max_cycles_examined = 4096

(* Per-thread state: held locks innermost-first with reentrancy depth, plus
   the open method execution. *)
type tstate = {
  mutable held : (string * int) list;
  mutable exec : meth option;
}

type estate = {
  mutable witnesses_rev : witness list;
  mutable tids : Tid.t list;  (* distinct tids already witnessed *)
}

type t = {
  threads : (Tid.t, tstate) Hashtbl.t;
  etable : (string * string, estate) Hashtbl.t;
  lock_names : (string, unit) Hashtbl.t;
  mutable acquires : int;
  mutable index : int;
}

let create () =
  {
    threads = Hashtbl.create 16;
    etable = Hashtbl.create 64;
    lock_names = Hashtbl.create 16;
    acquires = 0;
    index = 0;
  }

let state t tid =
  match Hashtbl.find_opt t.threads tid with
  | Some s -> s
  | None ->
    let s = { held = []; exec = None } in
    Hashtbl.replace t.threads tid s;
    s

(* Records [w] on [src -> dst] unless the edge already has a witness from
   [w]'s thread or is full; true when [w] was recorded. *)
let add_edge t ~src ~dst w =
  let e =
    match Hashtbl.find_opt t.etable (src, dst) with
    | Some e -> e
    | None ->
      let e = { witnesses_rev = []; tids = [] } in
      Hashtbl.replace t.etable (src, dst) e;
      e
  in
  if
    (not (List.mem w.tid e.tids))
    && List.length e.tids < max_witnesses_per_edge
  then begin
    e.tids <- w.tid :: e.tids;
    e.witnesses_rev <- w :: e.witnesses_rev;
    true
  end
  else false

(* Reentrancy depths change in place, so [held] keeps the order of first
   acquisition, innermost first. *)
let deepen s lock d =
  s.held <- List.map (fun (l, n) -> if l = lock then (l, n + d) else (l, n)) s.held

let acquire t ~index tid lock =
  t.acquires <- t.acquires + 1;
  Hashtbl.replace t.lock_names lock ();
  let s = state t tid in
  if List.mem_assoc lock s.held then begin
    (* reentrant: the lock is already held, so no new ordering arises *)
    deepen s lock 1;
    []
  end
  else begin
    let held = List.map fst s.held in
    let w = { index; tid; held; meth = s.exec } in
    s.held <- (lock, 1) :: s.held;
    List.filter_map
      (fun src -> if add_edge t ~src ~dst:lock w then Some (src, w) else None)
      held
  end

let release t tid lock =
  let s = state t tid in
  match List.assoc_opt lock s.held with
  | Some n when n > 1 -> deepen s lock (-1)
  | Some _ -> s.held <- List.remove_assoc lock s.held
  | None -> () (* unmatched release is the linter's business, not ours *)

let reversal t ~src ~dst (w : witness) =
  match Hashtbl.find_opt t.etable (dst, src) with
  | None -> None
  | Some e ->
    let gate l = l <> src && l <> dst in
    List.find_opt
      (fun (w' : witness) ->
        (not (Tid.equal w'.tid w.tid))
        && not (List.exists (fun l -> gate l && List.mem l w'.held) w.held))
      (List.rev e.witnesses_rev)

let feed t ev =
  let index = t.index in
  t.index <- index + 1;
  match ev with
  | Event.Call { tid; mid; _ } ->
    (state t tid).exec <- Some { mid; call_index = index }
  | Event.Return { tid; _ } -> (state t tid).exec <- None
  | Event.Acquire { tid; lock } -> ignore (acquire t ~index tid lock)
  | Event.Release { tid; lock } -> release t tid lock
  | Event.Commit _ | Event.Write _ | Event.Read _ | Event.Block_begin _
  | Event.Block_end _ -> ()

(* --- cycle enumeration --------------------------------------------------- *)

(* Tarjan's strongly-connected components over the lock graph. *)
let sccs nodes succ =
  let n = Array.length nodes in
  let idx_of = Hashtbl.create (2 * n) in
  Array.iteri (fun i l -> Hashtbl.replace idx_of l i) nodes;
  let index = ref 0 in
  let stack = ref [] in
  let on_stack = Array.make n false in
  let indices = Array.make n (-1) in
  let lowlink = Array.make n 0 in
  let comp = Array.make n (-1) in
  let ncomp = ref 0 in
  let rec strong v =
    indices.(v) <- !index;
    lowlink.(v) <- !index;
    incr index;
    stack := v :: !stack;
    on_stack.(v) <- true;
    List.iter
      (fun wl ->
        let w = Hashtbl.find idx_of wl in
        if indices.(w) < 0 then begin
          strong w;
          lowlink.(v) <- min lowlink.(v) lowlink.(w)
        end
        else if on_stack.(w) then lowlink.(v) <- min lowlink.(v) indices.(w))
      (succ nodes.(v));
    if lowlink.(v) = indices.(v) then begin
      let c = !ncomp in
      incr ncomp;
      let rec pop () =
        match !stack with
        | w :: rest ->
          stack := rest;
          on_stack.(w) <- false;
          comp.(w) <- c;
          if w <> v then pop ()
        | [] -> ()
      in
      pop ()
    end
  in
  for v = 0 to n - 1 do
    if indices.(v) < 0 then strong v
  done;
  comp

(* Every elementary cycle, each enumerated exactly once: a cycle is rooted at
   its smallest node (in the sorted order of [nodes]) and the DFS only visits
   larger nodes, all within one SCC. *)
let elementary_cycles nodes succ =
  let n = Array.length nodes in
  let idx_of = Hashtbl.create (2 * n) in
  Array.iteri (fun i l -> Hashtbl.replace idx_of l i) nodes;
  let comp = sccs nodes succ in
  let cycles = ref [] in
  let examined = ref 0 in
  let truncated = ref false in
  let on_path = Array.make n false in
  let rec dfs start path v =
    if !examined < max_cycles_examined then
      List.iter
        (fun wl ->
          let w = Hashtbl.find idx_of wl in
          if comp.(w) = comp.(start) then
            if w = start then begin
              incr examined;
              if !examined <= max_cycles_examined then
                cycles := List.rev path :: !cycles
              else truncated := true
            end
            else if w > start && not on_path.(w) then begin
              on_path.(w) <- true;
              dfs start (w :: path) w;
              on_path.(w) <- false
            end)
        (succ nodes.(v))
  in
  for s = 0 to n - 1 do
    on_path.(s) <- true;
    dfs s [ s ] s;
    on_path.(s) <- false
  done;
  (List.rev_map (List.map (fun i -> nodes.(i))) !cycles, !truncated)

(* --- witness selection and suppression ----------------------------------- *)

(* A cycle is reportable iff some choice of one witness per edge has
   pairwise-distinct threads (a single thread cannot deadlock with itself —
   our locks are reentrant) and no gate lock: a lock outside the cycle held
   across every chosen witness serializes the whole pattern and makes the
   deadlock interleaving impossible (Goodlock's two classic suppressions). *)
type verdict =
  | Reported of witness list
  | Gated
  | Single_thread

let select_witnesses cycle_locks (edges : edge list) =
  let in_cycle l = List.mem l cycle_locks in
  let found_distinct = ref false in
  let rec go acc_tids acc_gates acc_ws = function
    | [] ->
      found_distinct := true;
      if acc_gates = [] then Some (List.rev acc_ws) else None
    | e :: rest ->
      List.fold_left
        (fun found w ->
          match found with
          | Some _ -> found
          | None ->
            if List.mem w.tid acc_tids then None
            else
              let gates =
                match acc_ws with
                | [] -> List.filter (fun l -> not (in_cycle l)) w.held
                | _ -> List.filter (fun l -> List.mem l w.held) acc_gates
              in
              go (w.tid :: acc_tids) gates (w :: acc_ws) rest)
        None e.witnesses
  in
  match go [] [] [] edges with
  | Some ws -> Reported ws
  | None -> if !found_distinct then Gated else Single_thread

(* --- results ------------------------------------------------------------- *)

let result t =
  let edge_list =
    Hashtbl.fold
      (fun (src, dst) e acc ->
        { src; dst; witnesses = List.rev e.witnesses_rev } :: acc)
      t.etable []
    |> List.sort (fun a b -> compare (a.src, a.dst) (b.src, b.dst))
  in
  let nodes =
    Hashtbl.fold (fun l () acc -> l :: acc) t.lock_names []
    |> List.sort compare |> Array.of_list
  in
  let succ_tbl = Hashtbl.create 32 in
  List.iter
    (fun e ->
      let prev = Option.value ~default:[] (Hashtbl.find_opt succ_tbl e.src) in
      Hashtbl.replace succ_tbl e.src (e.dst :: prev))
    (List.rev edge_list);
  let succ l = Option.value ~default:[] (Hashtbl.find_opt succ_tbl l) in
  let raw_cycles, _truncated = elementary_cycles nodes succ in
  let edge_of src dst = List.find (fun e -> e.src = src && e.dst = dst) edge_list in
  let cycles = ref [] in
  let gated = ref 0 in
  let single = ref 0 in
  List.iter
    (fun locks ->
      let k = List.length locks in
      let edges =
        List.mapi
          (fun i src -> edge_of src (List.nth locks ((i + 1) mod k)))
          locks
      in
      match select_witnesses locks edges with
      | Reported chosen -> cycles := { locks; edges; chosen } :: !cycles
      | Gated -> incr gated
      | Single_thread -> incr single)
    raw_cycles;
  let cycles =
    List.sort (fun (a : cycle) (b : cycle) -> compare a.locks b.locks) !cycles
  in
  {
    cycles;
    locks = Array.length nodes;
    edges = List.length edge_list;
    acquires = t.acquires;
    events = t.index;
    suppressed_gated = !gated;
    suppressed_single_thread = !single;
    graph = edge_list;
  }

(* Unlike {!Racedetect.analyze} this accepts logs of any level: a log below
   [`Full] carries no lock events, so the graph is empty and the verdict
   trivially clean — callers that need the stronger guarantee check
   [result.acquires] or the log level themselves. *)
let analyze log =
  let t = create () in
  Log.iter (feed t) log;
  result t

let ok r = r.cycles = []

let cyclic_locks r =
  List.concat_map (fun (c : cycle) -> c.locks) r.cycles
  |> List.sort_uniq compare

let pp_witness ppf w =
  Fmt.pf ppf "%s @%d holding {%s}%a" (Tid.to_string w.tid) w.index
    (String.concat ", " (List.sort compare w.held))
    Fmt.(option (fun ppf m -> pf ppf " (in %s@%d)" m.mid m.call_index))
    w.meth

let pp_cycle ppf (c : cycle) =
  let k = List.length c.locks in
  Fmt.pf ppf "@[<v2>potential deadlock: %s:@ %a@]"
    (String.concat " -> " (c.locks @ [ List.hd c.locks ]))
    Fmt.(list ~sep:cut (fun ppf (i, (e : edge), w) ->
        pf ppf "edge %d/%d %s -> %s: %a" (i + 1) k e.src e.dst pp_witness w))
    (List.mapi (fun i (e, w) -> (i, e, w)) (List.combine c.edges c.chosen))

let pp ppf r =
  if r.cycles = [] then
    Fmt.pf ppf
      "no lock-order cycles (%d locks, %d edges, %d acquires in %d events; \
       %d gated, %d single-thread suppressed)"
      r.locks r.edges r.acquires r.events r.suppressed_gated
      r.suppressed_single_thread
  else
    Fmt.pf ppf "@[<v>%d potential deadlock cycle(s) over %d locks:@ %a@]"
      (List.length r.cycles) r.locks
      Fmt.(list ~sep:cut pp_cycle)
      r.cycles
