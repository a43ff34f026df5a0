open Vyrd
module Sched = Vyrd_sched.Sched
module Cell = Instrument.Cell

type bug = Unprotected_dirty_copy

let block_size = 8
let blocks_per_file = 2
let file_size = block_size * blocks_per_file

type block_state = Absent | Clean | Dirty

type block = { state : block_state Cell.t; data : char Cell.t array }

type t = {
  ctx : Instrument.ctx;
  fs_lock : Sched.mutex;  (* serializes directory operations *)
  clean_lock : Sched.mutex;  (* the block cache's lock *)
  blocks : block array;
  disk : string Cell.t array;
  names : string list Cell.t;  (* every name ever created; drives the view *)
  dir : (string, Repr.t Cell.t) Hashtbl.t;
  mutable free : int list;
  bugs : bug list;
}

let state_var b = Printf.sprintf "fstate[%d]" b
let data_var b j = Printf.sprintf "fblk[%d][%d]" b j
let disk_var b = Printf.sprintf "disk[%d]" b
let dir_var name = Printf.sprintf "dir[%s]" name

let state_repr = function
  | Absent -> Repr.Str "none"
  | Clean -> Repr.Str "clean"
  | Dirty -> Repr.Str "dirty"

let create_fs ?(bugs = []) ~disk_blocks ctx =
  let block b =
    {
      state = Cell.make ctx ~name:(state_var b) ~repr:state_repr Absent;
      data =
        Array.init block_size (fun j ->
            Cell.make ctx ~name:(data_var b j)
              ~repr:(fun c -> Repr.Str (String.make 1 c))
              '\000');
    }
  in
  {
    ctx;
    fs_lock = Instrument.mutex ctx ~name:"fs";
    clean_lock = Instrument.mutex ctx ~name:"fclean";
    blocks = Array.init disk_blocks block;
    disk =
      Array.init disk_blocks (fun b ->
          Cell.make ctx ~name:(disk_var b) ~repr:(fun s -> Repr.Str s) "");
    names =
      Cell.make ctx ~name:"fs.names"
        ~repr:(fun ns -> Repr.List (List.map (fun n -> Repr.Str n) ns))
        [];
    dir = Hashtbl.create 16;
    free = List.init disk_blocks Fun.id;
    bugs;
  }

let dir_cell t name =
  Sched.atomic t.ctx.Instrument.sched (fun () ->
      match Hashtbl.find_opt t.dir name with
      | Some c -> c
      | None ->
        let c = Cell.make t.ctx ~name:(dir_var name) ~repr:Fun.id Repr.Unit in
        Hashtbl.replace t.dir name c;
        c)

(* directory entry encoding: Unit = absent; (len, blocks) otherwise *)
let entry_repr len blocks =
  Repr.List [ Repr.Int len; Repr.List (List.map (fun b -> Repr.Int b) blocks) ]

let entry_of_repr = function
  | Repr.Unit -> None
  | Repr.List [ Repr.Int len; Repr.List bs ] ->
    Some (len, List.map (function Repr.Int b -> b | _ -> assert false) bs)
  | _ -> None

let pad data =
  let n = String.length data in
  if n >= file_size then String.sub data 0 file_size
  else data ^ String.make (file_size - n) '\000'

(* --- the block cache --------------------------------------------------- *)

let copy_block t b data =
  Array.iteri (fun j cell -> Cell.set cell data.[j]) t.blocks.(b).data

let read_block_entry t b =
  String.init block_size (fun j -> Cell.get t.blocks.(b).data.(j))

let buggy t = List.mem Unprotected_dirty_copy t.bugs

(* Write one block through the cache; [data] has exactly [block_size]
   bytes.  Mirrors Fig. 8's WRITE: the in-place copy to an already-dirty
   entry is the buggy unprotected path. *)
let cache_write t b data =
  let blk = t.blocks.(b) in
  t.clean_lock.Sched.lock ();
  match Cell.get blk.state with
  | Absent | Clean ->
    copy_block t b data;
    Cell.set blk.state Dirty;
    t.clean_lock.Sched.unlock ()
  | Dirty ->
    if buggy t then begin
      (* the bug of §7.3: the scan flush can interleave this copy *)
      t.clean_lock.Sched.unlock ();
      copy_block t b data
    end
    else begin
      copy_block t b data;
      t.clean_lock.Sched.unlock ()
    end

let cache_read t b =
  Sched.with_lock t.clean_lock (fun () ->
      match Cell.get t.blocks.(b).state with
      | Absent ->
        let s = Cell.get t.disk.(b) in
        if s = "" then String.make block_size '\000' else s
      | Clean | Dirty -> read_block_entry t b)

(* --- public file operations -------------------------------------------- *)

let create t name =
  let body () =
    Sched.with_lock t.fs_lock (fun () ->
        let cell = dir_cell t name in
        if entry_of_repr (Cell.get cell) <> None then Repr.Bool false
        else begin
          Instrument.with_block t.ctx (fun () ->
              Cell.set t.names (name :: Cell.peek t.names);
              Cell.set_and_commit cell (entry_repr 0 []));
          Repr.Bool true
        end)
  in
  Instrument.op t.ctx "create" [ Repr.Str name ] body = Repr.Bool true

let take_blocks t n =
  let rec take n free =
    if n = 0 then ([], free)
    else
      match free with
      | b :: rest ->
        let bs, rest' = take (n - 1) rest in
        (b :: bs, rest')
      | [] -> assert false
  in
  if List.length t.free < n then None
  else begin
    let blocks, rest = take n t.free in
    t.free <- rest;
    Some blocks
  end

(* Scan is write-optimized: a file write goes to freshly allocated blocks
   and the directory update publishes them, so a concurrent flush/evict can
   never expose uncommitted or torn file contents.  The buggy variant keeps
   the legacy in-place overwrite: it reuses the file's current blocks, whose
   dirty cache entries it overwrites without the cache lock — the Scan cache
   bug of §7.3. *)
let write t name data =
  let data = pad data in
  let body () =
    Sched.with_lock t.fs_lock (fun () ->
        let cell = dir_cell t name in
        match entry_of_repr (Cell.get cell) with
        | None -> Repr.Bool false
        | Some (_, old_blocks) ->
          let in_place = buggy t && List.length old_blocks = blocks_per_file in
          let fresh =
            if in_place then Some old_blocks else take_blocks t blocks_per_file
          in
          (match fresh with
          | None -> Repr.Bool false (* disk full *)
          | Some blocks ->
            Instrument.with_block t.ctx (fun () ->
                List.iteri
                  (fun i b ->
                    cache_write t b (String.sub data (i * block_size) block_size))
                  blocks;
                Cell.set_and_commit cell (entry_repr file_size blocks));
            if not in_place then t.free <- old_blocks @ t.free;
            Repr.Bool true))
  in
  Instrument.op t.ctx "fwrite" [ Repr.Str name; Repr.Str data ] body = Repr.Bool true

let append t name data =
  let body () =
    Sched.with_lock t.fs_lock (fun () ->
        let cell = dir_cell t name in
        match entry_of_repr (Cell.get cell) with
        | None -> Repr.Bool false
        | Some (len, old_blocks) ->
          if len + String.length data > file_size then Repr.Bool false
          else (
            (* copy-on-write: read the current contents, extend, rewrite *)
            let current =
              String.concat "" (List.map (cache_read t) old_blocks)
            in
            let content = String.sub current 0 len ^ data in
            let padded = pad content in
            match take_blocks t blocks_per_file with
            | None -> Repr.Bool false
            | Some blocks ->
              Instrument.with_block t.ctx (fun () ->
                  List.iteri
                    (fun i b ->
                      cache_write t b
                        (String.sub padded (i * block_size) block_size))
                    blocks;
                  Cell.set_and_commit cell
                    (entry_repr (String.length content) blocks));
              t.free <- old_blocks @ t.free;
              Repr.Bool true))
  in
  Instrument.op t.ctx "fappend" [ Repr.Str name; Repr.Str data ] body = Repr.Bool true

(* The two-resource operation: both directory entries change atomically at
   one commit (cf. the paper's InsertPair, §2.1). *)
let rename t ~src ~dst =
  let body () =
    Sched.with_lock t.fs_lock (fun () ->
        let src_cell = dir_cell t src in
        let dst_cell = dir_cell t dst in
        match (entry_of_repr (Cell.get src_cell), entry_of_repr (Cell.get dst_cell)) with
        | None, _ | _, Some _ -> Repr.Bool false
        | Some (len, blocks), None ->
          Instrument.with_block t.ctx (fun () ->
              Cell.set t.names (dst :: Cell.peek t.names);
              Cell.set dst_cell (entry_repr len blocks);
              Cell.set_and_commit src_cell Repr.Unit);
          Repr.Bool true)
  in
  Instrument.op t.ctx "frename" [ Repr.Str src; Repr.Str dst ] body = Repr.Bool true

let read t name =
  let body () =
    Sched.with_lock t.fs_lock (fun () ->
        let cell = dir_cell t name in
        match entry_of_repr (Cell.get cell) with
        | None -> Repr.Unit
        | Some (len, blocks) ->
          let content = String.concat "" (List.map (cache_read t) blocks) in
          Repr.Str (String.sub content 0 len))
  in
  match Instrument.op t.ctx "fread" [ Repr.Str name ] body with
  | Repr.Str s -> Some s
  | _ -> None

let delete t name =
  let body () =
    Sched.with_lock t.fs_lock (fun () ->
        let cell = dir_cell t name in
        match entry_of_repr (Cell.get cell) with
        | None -> Repr.Bool false
        | Some (_, blocks) ->
          Instrument.with_block t.ctx (fun () ->
              Cell.set_and_commit cell Repr.Unit);
          t.free <- blocks @ t.free;
          Repr.Bool true)
  in
  Instrument.op t.ctx "fdelete" [ Repr.Str name ] body = Repr.Bool true

let exists t name =
  let body () =
    Sched.with_lock t.fs_lock (fun () ->
        Repr.Bool (entry_of_repr (Cell.get (dir_cell t name)) <> None))
  in
  Instrument.op t.ctx "exists" [ Repr.Str name ] body = Repr.Bool true

(* --- daemons ------------------------------------------------------------ *)

(* One elevator pass: flush dirty blocks in ascending order. *)
let sync t =
  let body () =
    Sched.with_lock t.clean_lock (fun () ->
        Instrument.with_block t.ctx (fun () ->
            Array.iteri
              (fun b blk ->
                if Cell.get blk.state = Dirty then begin
                  Cell.set t.disk.(b) (read_block_entry t b);
                  Cell.set blk.state Clean
                end)
              t.blocks;
            Instrument.commit t.ctx));
    Repr.Unit
  in
  ignore (Instrument.op t.ctx "sync" [] body)

let evict t b =
  let body () =
    Sched.with_lock t.clean_lock (fun () ->
        let blk = t.blocks.(b) in
        match Cell.get blk.state with
        | Absent -> Instrument.commit t.ctx
        | Clean -> Cell.set_and_commit blk.state Absent
        | Dirty ->
          Instrument.with_block t.ctx (fun () ->
              Cell.set t.disk.(b) (read_block_entry t b);
              Cell.set blk.state Absent;
              Instrument.commit t.ctx));
    Repr.Unit
  in
  ignore (Instrument.op t.ctx "evict" [ Repr.Int b ] body)

(* --- view and specification --------------------------------------------- *)

(* The view's per-block variable names, built once with the definition: a
   view looks them up at every recompute, and a component's lookup trail
   reads its cell directly only for a name it has seen physically before.
   A block past [disk_blocks], which only a damaged log can name, builds its
   names at each lookup. *)
type block_names = { states : string array; datas : string array array; disks : string array }

let block_names ~disk_blocks =
  {
    states = Array.init disk_blocks state_var;
    datas = Array.init disk_blocks (fun b -> Array.init block_size (data_var b));
    disks = Array.init disk_blocks disk_var;
  }

let known names b = b >= 0 && b < Array.length names.states

let block_state names lookup b =
  lookup (if known names b then names.states.(b) else state_var b)

let entry_bytes names lookup b =
  String.init block_size (fun j ->
      match lookup (if known names b then names.datas.(b).(j) else data_var b j) with
      | Some (Repr.Str s) when String.length s = 1 -> s.[0]
      | _ -> '\000')

let disk_bytes names lookup b =
  match lookup (if known names b then names.disks.(b) else disk_var b) with
  | Some (Repr.Str s) when s <> "" -> s
  | _ -> String.make block_size '\000'

let lookup_names lookup =
  match lookup "fs.names" with
  | Some (Repr.List ns) -> List.filter_map (function Repr.Str n -> Some n | _ -> None) ns
  | Some _ | None -> []

let viewdef ~disk_blocks : View.t =
  let names = block_names ~disk_blocks in
  View.Full
    (fun lookup ->
      let block_bytes b =
        match block_state names lookup b with
        | Some (Repr.Str ("clean" | "dirty")) -> entry_bytes names lookup b
        | _ -> disk_bytes names lookup b
      in
      let file name =
        match Option.bind (lookup (dir_var name)) entry_of_repr with
        | None -> None
        | Some (len, blocks) ->
          let content = String.concat "" (List.map block_bytes blocks) in
          Some (Repr.Str name, Repr.Str (String.sub content 0 len))
      in
      View.canonical_of_assoc
        (List.filter_map file (List.sort_uniq compare (lookup_names lookup))))

(* Only blocks referenced by a committed directory entry are constrained: a
   copy-on-write update buffers its cache mutations until the directory
   commit, so an unreferenced block legitimately appears "clean" in the
   replay while the flush daemon has already pushed its in-flight bytes to
   disk. *)
let invariant_clean_matches_disk ~disk_blocks : Checker.invariant =
  let names = block_names ~disk_blocks in
  ( "clean cached file block matches disk",
    fun lookup ->
      let block_ok b =
        match block_state names lookup b with
        | Some (Repr.Str "clean") -> entry_bytes names lookup b = disk_bytes names lookup b
        | _ -> true
      in
      List.for_all
        (fun name ->
          match Option.bind (lookup (dir_var name)) entry_of_repr with
          | Some (_, blocks) -> List.for_all block_ok blocks
          | None -> true)
        (List.sort_uniq compare (lookup_names lookup)) )

module SMap = Map.Make (String)

module S = struct
  type state = string SMap.t

  let name = "scanfs"
  let init () = SMap.empty

  let kind = function
    | "create" | "fwrite" | "fappend" | "frename" | "fdelete" -> Spec.Mutator
    | "fread" | "exists" -> Spec.Observer
    | "sync" | "evict" -> Spec.Internal
    | m -> invalid_arg ("scanfs spec: unknown method " ^ m)

  type meth = string
  let meth = Spec.by_name kind

  let bad fmt = Printf.ksprintf (fun m -> Error m) fmt

  let apply st ~mid ~args ~ret =
    match (mid, args, ret) with
    | "create", [ Repr.Str n ], Repr.Bool true ->
      if SMap.mem n st then bad "create(%s) succeeded but the file exists" n
      else Ok (SMap.add n "" st)
    | "create", [ Repr.Str _ ], Repr.Bool false -> Ok st
    | "fwrite", [ Repr.Str n; Repr.Str d ], Repr.Bool true ->
      if SMap.mem n st then Ok (SMap.add n d st)
      else bad "write(%s) succeeded but the file does not exist" n
    | "fwrite", [ Repr.Str _; Repr.Str _ ], Repr.Bool false ->
      (* missing file or disk full; either way no transition *)
      Ok st
    | "fappend", [ Repr.Str n; Repr.Str d ], Repr.Bool true -> (
      match SMap.find_opt n st with
      | Some c when String.length c + String.length d <= file_size ->
        Ok (SMap.add n (c ^ d) st)
      | Some _ -> bad "append(%s) succeeded but the data does not fit" n
      | None -> bad "append(%s) succeeded but the file does not exist" n)
    | "fappend", [ Repr.Str _; Repr.Str _ ], Repr.Bool false -> Ok st
    | "frename", [ Repr.Str src; Repr.Str dst ], Repr.Bool true -> (
      match (SMap.find_opt src st, SMap.mem dst st) with
      | Some c, false -> Ok (SMap.add dst c (SMap.remove src st))
      | None, _ -> bad "rename(%s) succeeded but the source does not exist" src
      | _, true -> bad "rename to %s succeeded but the destination exists" dst)
    | "frename", [ Repr.Str _; Repr.Str _ ], Repr.Bool false -> Ok st
    | "fdelete", [ Repr.Str n ], Repr.Bool true ->
      if SMap.mem n st then Ok (SMap.remove n st)
      else bad "delete(%s) succeeded but the file does not exist" n
    | "fdelete", [ Repr.Str n ], Repr.Bool false ->
      if SMap.mem n st then bad "delete(%s) failed but the file exists" n else Ok st
    | ("sync" | "evict"), _, Repr.Unit -> Ok st
    | mid, _, _ -> bad "no %s transition matches the observed arguments/return" mid

  let observe st ~mid ~args ~ret =
    match (mid, args, ret) with
    | "fread", [ Repr.Str n ], Repr.Str s -> SMap.find_opt n st = Some s
    | "fread", [ Repr.Str n ], Repr.Unit -> not (SMap.mem n st)
    | "exists", [ Repr.Str n ], Repr.Bool b -> b = SMap.mem n st
    (* non-committing mutator executions: create may also fail when the
       disk is full, so a false return is always admissible for it *)
    | "create", [ Repr.Str n ], Repr.Bool false -> SMap.mem n st
    | "fwrite", [ Repr.Str _; _ ], Repr.Bool false -> true (* absent or disk full *)
    | "fappend", [ Repr.Str _; _ ], Repr.Bool false -> true (* absent, full, overflow *)
    | "frename", [ Repr.Str src; Repr.Str dst ], Repr.Bool false ->
      (not (SMap.mem src st)) || SMap.mem dst st
    | "fdelete", [ Repr.Str n ], Repr.Bool false -> not (SMap.mem n st)
    | ("sync" | "evict"), _, Repr.Unit -> true
    | _ -> false

  let view st =
    View.canonical_of_assoc
      (SMap.fold (fun n c acc -> (Repr.Str n, Repr.Str c) :: acc) st [])

  let snapshot st = st

  let save st =
    Some
      (Repr.List
         (SMap.fold (fun n c acc -> Repr.Pair (Repr.Str n, Repr.Str c) :: acc) st []))

  let load = function
    | Repr.List kvs ->
      List.fold_left
        (fun st -> function
          | Repr.Pair (Repr.Str n, Repr.Str c) -> SMap.add n c st
          | v -> invalid_arg ("scanfs spec: bad saved entry " ^ Repr.to_string v))
        SMap.empty kvs
    | v -> invalid_arg ("scanfs spec: bad saved state " ^ Repr.to_string v)
end

let spec : Spec.t = (module S)
