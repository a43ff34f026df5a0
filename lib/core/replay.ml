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
  blocks : block Tid.Tbl.t;
  mutable stale : int;  (* readers of cells published with a new value *)
  mutable owner : int;  (* reader whose bits [stale] collects; 0 = none *)
}

let create () =
  { visible = Vars.create 64; blocks = Tid.Tbl.create 8; stale = 0; owner = 0 }

let publish t var v =
  match Vars.find t.visible var with
  | { value = Some v0; _ } when Repr.equal v0 v -> ()
  | c ->
    c.value <- Some v;
    t.stale <- t.stale lor c.readers
  | exception Not_found -> Vars.add t.visible var { value = Some v; readers = 0 }

(* Most writes and commits happen outside any commit block, so [write] and
   [commit] test membership before a [find], which would raise on a miss. *)
let write t tid var v =
  if Tid.Tbl.mem t.blocks tid then begin
    let b = Tid.Tbl.find t.blocks tid in
    if b.published then publish t var v else Vec.push b.buffered (var, v)
  end
  else publish t var v

let block_begin t tid =
  if Tid.Tbl.mem t.blocks tid then
    raise (Ill_formed (Tid.to_string tid ^ ": nested commit block"));
  Tid.Tbl.replace t.blocks tid { buffered = Vec.create (); published = false }

let drain t b =
  Vec.iter (fun (var, v) -> publish t var v) b.buffered;
  Vec.clear b.buffered;
  b.published <- true

let commit t tid =
  if Tid.Tbl.mem t.blocks tid then begin
    let b = Tid.Tbl.find t.blocks tid in
    if not b.published then drain t b
  end

let block_end t tid =
  match Tid.Tbl.find t.blocks tid with
  | b ->
    if not b.published then drain t b;
    Tid.Tbl.remove t.blocks tid
  | exception Not_found -> raise (Ill_formed (Tid.to_string tid ^ ": block end without begin"))

let lookup t var = match Vars.find t.visible var with c -> c.value | exception Not_found -> None

(* The same probe as [lookup]; a miss leaves a value-less cell behind so
   that the variable's first publish still finds the reader.  A cell stays
   in the table until [restore], so a reader may keep it and read its
   value later without a probe. *)
let cell t ~reader var =
  match Vars.find t.visible var with
  | c ->
    c.readers <- c.readers lor reader;
    c
  | exception Not_found ->
    let c = { value = None; readers = reader } in
    Vars.add t.visible var c;
    c

let value c = c.value
let read t ~reader var = (cell t ~reader var).value

let take_stale t ~owner =
  let stale = if t.owner = owner then t.stale else -1 in
  t.owner <- owner;
  t.stale <- 0;
  stale

let fold f t acc =
  Vars.fold (fun var c acc -> match c.value with Some v -> f var v acc | None -> acc) t.visible acc

(* ---------------------------------------------------------- checkpoints *)

let snapshot t =
  let visible =
    fold (fun var v acc -> (var, v) :: acc) t []
    |> List.sort compare
    |> List.map (fun (var, v) -> Repr.Pair (Repr.Str var, v))
  in
  let blocks =
    Tid.Tbl.fold (fun tid b acc -> (tid, b) :: acc) t.blocks []
    |> List.sort (fun (a, _) (b, _) -> Tid.compare a b)
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
    Tid.Tbl.reset t.blocks;
    (* the reader bits are gone with the old cells: no reader's memo
       survives *)
    t.owner <- 0;
    List.iter
      (fun kv ->
        let var, v = Ckpt.pair kv in
        Vars.replace t.visible (Ckpt.str var) { value = Some v; readers = 0 })
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
          Tid.Tbl.replace t.blocks (Ckpt.int tid) b
        | _ -> Ckpt.malformed "replay snapshot: bad block entry")
      blocks
  | v -> Ckpt.malformed "replay snapshot: %s" (Repr.to_string v)
