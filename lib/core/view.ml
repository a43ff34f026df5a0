type lookup = string -> Repr.t option

type keyed = {
  keys_of_var : string -> Repr.t list;
  project : lookup -> Repr.t -> Repr.t option;
}

type t =
  | Full of (lookup -> Repr.t)
  | Keyed of keyed
  | Pair of t * t

let canonical_of_assoc kvs =
  Repr.List
    (List.sort Repr.compare (List.map (fun (k, v) -> Repr.Pair (k, v)) kvs))

(* A [Full] component keeps its last value and recomputes only when the
   replay reports its reader bit stale. *)
type full = { f : lookup -> Repr.t; bit : int; mutable memo : Repr.t option }

type node =
  | Efull of full
  | Ekeyed of {
      spec : keyed;
      table : (Repr.t, Repr.t) Hashtbl.t;
      mutable projections : int;
    }
  | Epair of node * node

type eval = { root : node; id : int  (* the replay's reader identity *) }

let next_id = Atomic.make 1

(* [Full] components take reader bits in left-to-right order; past
   [Sys.int_size] components the bits wrap around and are shared, which
   only costs extra recomputes. *)
let make_eval v =
  let fulls = ref 0 in
  let rec build = function
    | Full f ->
      let bit = 1 lsl (!fulls mod Sys.int_size) in
      incr fulls;
      Efull { f; bit; memo = None }
    | Keyed spec -> Ekeyed { spec; table = Hashtbl.create 64; projections = 0 }
    | Pair (a, b) ->
      let a = build a in
      Epair (a, build b)
  in
  let root = build v in
  { root; id = Atomic.fetch_and_add next_id 1 }

(* The replay's dirty set is drained once per commit and shared by every
   [Keyed] component of the evaluator tree; likewise its stale mask for
   the [Full] components. *)
let rec recompute_dirty node replay dirty stale =
  match node with
  | Efull c -> (
    match c.memo with
    | Some v when stale land c.bit = 0 -> v
    | Some _ | None ->
      let v = c.f (Replay.read replay ~reader:c.bit) in
      c.memo <- Some v;
      v)
  | Ekeyed e ->
    let keys =
      List.concat_map e.spec.keys_of_var dirty |> List.sort_uniq Repr.compare
    in
    List.iter
      (fun key ->
        e.projections <- e.projections + 1;
        match e.spec.project (Replay.lookup replay) key with
        | Some v -> Hashtbl.replace e.table key v
        | None -> Hashtbl.remove e.table key)
      keys;
    canonical_of_assoc (Hashtbl.fold (fun k v acc -> (k, v) :: acc) e.table [])
  | Epair (a, b) ->
    let va = recompute_dirty a replay dirty stale in
    let vb = recompute_dirty b replay dirty stale in
    Repr.Pair (va, vb)

let rec needs_dirty = function
  | Efull _ -> false
  | Ekeyed _ -> true
  | Epair (a, b) -> needs_dirty a || needs_dirty b

let recompute eval replay =
  (* only [Keyed] components consume the dirty set; for an all-[Full] tree,
     skip the per-commit drain (fold + reset + list) — the set stays bounded
     by the number of distinct variable names either way *)
  let dirty = if needs_dirty eval.root then Replay.take_dirty replay else [] in
  let stale = Replay.take_stale replay ~owner:eval.id in
  recompute_dirty eval.root replay dirty stale

let projections eval =
  let rec go = function
    | Efull _ -> 0
    | Ekeyed e -> e.projections
    | Epair (a, b) -> go a + go b
  in
  go eval.root

let reset eval =
  let rec go = function
    | Efull c -> c.memo <- None
    | Ekeyed e -> Hashtbl.reset e.table
    | Epair (a, b) ->
      go a;
      go b
  in
  go eval.root
