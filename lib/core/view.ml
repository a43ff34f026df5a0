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
   view, [Pair (key, value)], or [None] while the key is absent.

   A component also keeps the trail of its last evaluation: the names it
   looked up, in order, and the replay cell each one found.  A recompute
   usually repeats the same lookups with the same (precomputed) name
   strings, so a lookup whose name is physically the one at the same trail
   position reads that cell without hashing the name; its reader bit is
   registered there already.  Any other lookup probes the replay and takes
   over that trail position.  Cells live until [Replay.restore], after
   which [take_stale] reports [-1]: that mask drops every trail.  A
   component whose trail served none of a recompute's lookups builds its
   names per call; it stops keeping a trail, which would only cost it a
   store per lookup. *)
type 'a comp = {
  f : lookup -> 'a;
  bit : int;
  mutable memo : 'a option;
  mutable names : string array;  (* trail: names looked up ... *)
  mutable cells : Replay.cell array;  (* ... and the cells they found *)
  mutable len : int;  (* trail length of the last evaluation *)
  mutable pos : int;  (* lookups so far in the current evaluation *)
  mutable hits : int;  (* of those, read through the trail *)
  mutable trailed : bool;  (* false once a recompute had no hit *)
}

(* [Ekeyed] keeps its last value and returns it while none of its
   components' bits is stale; [Epair] returns its last pair while both
   halves come back physically unchanged.  So a commit that changed
   nothing below a node hands the checker's comparison the node it
   compared last time, which it skips by physical equality.  [pv] starts
   as a pair of [Unit]s, a value it may rightly return. *)
type node =
  | Efull of Repr.t comp
  | Ekeyed of {
      comps : Repr.t option comp list;  (* sorted by key *)
      bits : int;  (* the union of the components' bits *)
      mutable kv : Repr.t option;
    }
  | Epair of { a : node; b : node; mutable pv : Repr.t }

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
    { f; bit; memo = None; names = [||]; cells = [||]; len = 0; pos = 0; hits = 0;
      trailed = true }
  in
  let entry project key lookup =
    incr projections;
    Option.map (fun v -> Repr.Pair (key, v)) (project lookup key)
  in
  let rec build = function
    | Full f -> Efull (comp f)
    | Keyed { keys; project } ->
      let comps =
        List.map (fun key -> comp (entry project key)) (List.sort_uniq Repr.compare keys)
      in
      Ekeyed { comps; bits = List.fold_left (fun bits c -> bits lor c.bit) 0 comps; kv = None }
    | Pair (a, b) ->
      let a = build a in
      Epair { a; b = build b; pv = Repr.Pair (Repr.Unit, Repr.Unit) }
  in
  let root = build v in
  { root; id = Atomic.fetch_and_add next_id 1; projections }

let record c i name cell =
  if i = Array.length c.names then begin
    let n = max 8 (2 * i) in
    let names = Array.make n name and cells = Array.make n cell in
    Array.blit c.names 0 names 0 i;
    Array.blit c.cells 0 cells 0 i;
    c.names <- names;
    c.cells <- cells
  end;
  Array.unsafe_set c.names i name;
  Array.unsafe_set c.cells i cell

let lookup c replay name =
  let i = c.pos in
  c.pos <- i + 1;
  if i < c.len && Array.unsafe_get c.names i == name then begin
    c.hits <- c.hits + 1;
    Replay.value (Array.unsafe_get c.cells i)
  end
  else begin
    let cell = Replay.cell replay ~reader:c.bit name in
    record c i name cell;
    Replay.value cell
  end

let get c replay stale =
  match c.memo with
  | Some v when stale land c.bit = 0 -> v
  | Some _ | None ->
    let v =
      if not c.trailed then c.f (Replay.read replay ~reader:c.bit)
      else begin
        if stale = -1 then c.len <- 0;
        let kept = c.len in
        c.pos <- 0;
        c.hits <- 0;
        let v = c.f (lookup c replay) in
        c.len <- c.pos;
        if kept > 0 && c.hits = 0 then begin
          c.trailed <- false;
          c.len <- 0;
          c.names <- [||];
          c.cells <- [||]
        end;
        v
      end
    in
    c.memo <- Some v;
    v

(* The replay's stale mask is drained once per commit and shared by every
   component of the evaluator tree. *)
let rec recompute_node node replay stale =
  match node with
  | Efull c -> get c replay stale
  | Ekeyed ({ kv = Some v; _ } as k) when stale land k.bits = 0 -> v
  | Ekeyed k ->
    let v = Repr.List (List.filter_map (fun c -> get c replay stale) k.comps) in
    k.kv <- Some v;
    v
  | Epair p ->
    let va = recompute_node p.a replay stale in
    let vb = recompute_node p.b replay stale in
    (match p.pv with
    | Repr.Pair (a, b) when a == va && b == vb -> ()
    | _ -> p.pv <- Repr.Pair (va, vb));
    p.pv

let recompute eval replay =
  recompute_node eval.root replay (Replay.take_stale replay ~owner:eval.id)

let projections eval = !(eval.projections)
