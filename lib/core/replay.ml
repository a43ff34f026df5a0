module Tid = Vyrd_sched.Tid
module Vec = Vyrd_sched.Vec

exception Ill_formed of string

type block = { buffered : (string * Repr.t) Vec.t; mutable published : bool }

module Vars = Hashtbl.Make (String)

(* One variable: its visible value ([None] until first published, for a
   cell a reader's missed lookup created) and the reader bits of the view
   components that looked it up. *)
type cell = { mutable value : Repr.t option; mutable readers : int }

type t = {
  visible : cell Vars.t;
  blocks : (Tid.t, block) Hashtbl.t;
  dirty : (string, unit) Hashtbl.t;
  mutable stale : int;  (* readers of cells published with a new value *)
  mutable owner : int;  (* reader whose bits [stale] collects; 0 = none *)
}

let create () =
  { visible = Vars.create 64; blocks = Hashtbl.create 8; dirty = Hashtbl.create 64;
    stale = 0; owner = 0 }

let publish t var v =
  match Vars.find t.visible var with
  | { value = Some v0; _ } when Repr.equal v0 v -> ()
  | c ->
    c.value <- Some v;
    t.stale <- t.stale lor c.readers;
    Hashtbl.replace t.dirty var ()
  | exception Not_found ->
    Vars.add t.visible var { value = Some v; readers = 0 };
    Hashtbl.replace t.dirty var ()

let write t tid var v =
  match Hashtbl.find_opt t.blocks tid with
  | Some b when not b.published -> Vec.push b.buffered (var, v)
  | Some _ | None -> publish t var v

let block_begin t tid =
  if Hashtbl.mem t.blocks tid then
    raise (Ill_formed (Tid.to_string tid ^ ": nested commit block"));
  Hashtbl.replace t.blocks tid { buffered = Vec.create (); published = false }

let drain t b =
  Vec.iter (fun (var, v) -> publish t var v) b.buffered;
  Vec.clear b.buffered;
  b.published <- true

let commit t tid =
  match Hashtbl.find_opt t.blocks tid with
  | Some b when not b.published -> drain t b
  | Some _ | None -> ()

let block_end t tid =
  match Hashtbl.find_opt t.blocks tid with
  | Some b ->
    if not b.published then drain t b;
    Hashtbl.remove t.blocks tid
  | None -> raise (Ill_formed (Tid.to_string tid ^ ": block end without begin"))

let lookup t var = match Vars.find t.visible var with c -> c.value | exception Not_found -> None

(* The same probe as [lookup]; a miss leaves a value-less cell behind so
   that the variable's first publish still finds the reader. *)
let read t ~reader var =
  match Vars.find t.visible var with
  | c ->
    c.readers <- c.readers lor reader;
    c.value
  | exception Not_found ->
    Vars.add t.visible var { value = None; readers = reader };
    None

let take_stale t ~owner =
  let stale = if t.owner = owner then t.stale else -1 in
  t.owner <- owner;
  t.stale <- 0;
  stale

let fold f t acc =
  Vars.fold (fun var c acc -> match c.value with Some v -> f var v acc | None -> acc) t.visible acc

let take_dirty t =
  let vars = Hashtbl.fold (fun var () acc -> var :: acc) t.dirty [] in
  Hashtbl.reset t.dirty;
  vars

(* ---------------------------------------------------------- checkpoints *)

let snapshot t =
  let visible =
    fold (fun var v acc -> (var, v) :: acc) t []
    |> List.sort compare
    |> List.map (fun (var, v) -> Repr.Pair (Repr.Str var, v))
  in
  let blocks =
    Hashtbl.fold (fun tid b acc -> (tid, b) :: acc) t.blocks []
    |> List.sort compare
    |> List.map (fun (tid, b) ->
           Repr.List
             [
               Repr.Int tid;
               Repr.Bool b.published;
               Repr.List
                 (List.rev
                    (Vec.fold_left
                       (fun acc (var, v) -> Repr.Pair (Repr.Str var, v) :: acc)
                       [] b.buffered));
             ])
  in
  Repr.List [ Repr.List visible; Repr.List blocks ]

let restore t repr =
  match repr with
  | Repr.List [ Repr.List visible; Repr.List blocks ] ->
    Vars.reset t.visible;
    Hashtbl.reset t.blocks;
    Hashtbl.reset t.dirty;
    (* the reader bits are gone with the old cells: no reader's memo
       survives *)
    t.owner <- 0;
    List.iter
      (fun kv ->
        let var, v = Ckpt.pair kv in
        let var = Ckpt.str var in
        Vars.replace t.visible var { value = Some v; readers = 0 };
        (* every restored variable starts dirty so an incremental view
           rebuilds its projections from scratch *)
        Hashtbl.replace t.dirty var ())
      visible;
    List.iter
      (fun bl ->
        match Ckpt.list bl with
        | [ tid; published; buffered ] ->
          let b = { buffered = Vec.create (); published = Ckpt.bool published } in
          List.iter
            (fun kv ->
              let var, v = Ckpt.pair kv in
              Vec.push b.buffered (Ckpt.str var, v))
            (Ckpt.list buffered);
          Hashtbl.replace t.blocks (Ckpt.int tid) b
        | _ -> Ckpt.malformed "replay snapshot: bad block entry")
      blocks
  | v -> Ckpt.malformed "replay snapshot: %s" (Repr.to_string v)
