type lookup = string -> Repr.t option

type keyed = { keys : Repr.t list; project : lookup -> Repr.t -> Repr.t option }

type t =
  | Full of (lookup -> Repr.t)
  | Keyed of keyed
  | Pair of t * t

let canonical_of_assoc kvs =
  Repr.List
    (List.sort Repr.compare (List.map (fun (k, v) -> Repr.Pair (k, v)) kvs))

(* A memoized component keeps its last value and recomputes only when the
   replay reports its reader bit stale.  A [Full] view is one component; a
   [Keyed] view is one component per key, holding that key's entry of the
   view, [Pair (key, value)], or [None] while the key is absent. *)
type 'a comp = { f : lookup -> 'a; bit : int; mutable memo : 'a option }

type node =
  | Efull of Repr.t comp
  | Ekeyed of Repr.t option comp list  (* sorted by key *)
  | Epair of node * node

type eval = {
  root : node;
  id : int;  (* the replay's reader identity *)
  projections : int ref;  (* key re-projections *)
}

let next_id = Atomic.make 1

(* Components take reader bits in left-to-right order; past [Sys.int_size]
   components the bits wrap around and are shared, which only costs extra
   recomputes.  Keys are sorted here, so a [Keyed] value needs no sort. *)
let make_eval v =
  let comps = ref 0 and projections = ref 0 in
  let comp f =
    let bit = 1 lsl (!comps mod Sys.int_size) in
    incr comps;
    { f; bit; memo = None }
  in
  let entry project key lookup =
    incr projections;
    Option.map (fun v -> Repr.Pair (key, v)) (project lookup key)
  in
  let rec build = function
    | Full f -> Efull (comp f)
    | Keyed { keys; project } ->
      Ekeyed (List.map (fun key -> comp (entry project key)) (List.sort_uniq Repr.compare keys))
    | Pair (a, b) ->
      let a = build a in
      Epair (a, build b)
  in
  let root = build v in
  { root; id = Atomic.fetch_and_add next_id 1; projections }

let get c replay stale =
  match c.memo with
  | Some v when stale land c.bit = 0 -> v
  | Some _ | None ->
    let v = c.f (Replay.read replay ~reader:c.bit) in
    c.memo <- Some v;
    v

(* The replay's stale mask is drained once per commit and shared by every
   component of the evaluator tree. *)
let rec recompute_node node replay stale =
  match node with
  | Efull c -> get c replay stale
  | Ekeyed cs -> Repr.List (List.filter_map (fun c -> get c replay stale) cs)
  | Epair (a, b) ->
    let va = recompute_node a replay stale in
    let vb = recompute_node b replay stale in
    Repr.Pair (va, vb)

let recompute eval replay =
  recompute_node eval.root replay (Replay.take_stale replay ~owner:eval.id)

let projections eval = !(eval.projections)
