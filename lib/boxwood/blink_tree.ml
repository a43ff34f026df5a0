open Vyrd
module Sched = Vyrd_sched.Sched
module Cell = Instrument.Cell
module Faults = Vyrd_faults.Faults

(* Seeded mutant (lib/faults): the leaf split commits the halved leaf —
   whose right link already points at the new sibling — BEFORE the sibling
   node is written.  Between the two writes the right half of the leaf (and
   everything reachable through the old right link) is unreachable: a torn
   split.  The replayed view at the split's commit is missing those pairs,
   so view refinement fires at the very first split. *)
(* ~semantic:false: the torn window is transient (the sibling write lands
   right after the yield), so the lost pairs only corrupt returns for a
   reader racing inside that window.  On the harness workloads no swept
   seed produces such a read — I/O-mode refinement, with full commit
   annotations, fires on 0 of 60 seeds at ops/thread 25..225 — so no
   call/return oracle (including the lin backend) can convict it; only
   view-mode refinement sees the abstract-state divergence at the commit. *)
let fault_torn_split =
  Faults.define ~name:"blink_tree.torn_split" ~subject:"BLinkTree"
    ~semantic:false
    ~description:
      "leaf split publishes the halved leaf before writing the new sibling; \
       readers between the two writes lose the moved pairs and the chain \
       beyond them"
    ()

type bug = Duplicate_data_nodes

type t = {
  ctx : Instrument.ctx;
  store : Bnode.store;
  order : int;
  root : int Cell.t;
  root_meta : Sched.mutex;  (* serializes root replacement *)
  locks : (int, Sched.mutex) Hashtbl.t;
  bugs : bug list;
}

let lock_of t h =
  Sched.atomic t.ctx.Instrument.sched (fun () ->
      match Hashtbl.find_opt t.locks h with
      | Some m -> m
      | None ->
        let m = t.ctx.Instrument.sched.Sched.new_mutex ~name:(Printf.sprintf "node%d" h) () in
        Hashtbl.replace t.locks h m;
        m)

let lock t h = (lock_of t h).Sched.lock ()
let unlock t h = (lock_of t h).Sched.unlock ()

let create ?(bugs = []) ?(order = 4) store ctx =
  if order < 2 then invalid_arg "Blink_tree.create: order must be at least 2";
  let rh = store.Bnode.alloc () in
  (* make the initial root visible to the replayer *)
  store.Bnode.write_node rh Bnode.empty_leaf;
  let t =
    {
      ctx;
      store;
      order;
      root = Cell.make ctx ~name:"tree.root" ~repr:(fun h -> Repr.Int h) rh;
      root_meta = ctx.Instrument.sched.Sched.new_mutex ~name:"root_meta" ();
      locks = Hashtbl.create 64;
      bugs;
    }
  in
  Cell.poke t.root rh;
  t

(* Move right from the locked node [(h, n)] until it is live and covers
   [key]; returns the new locked position. *)
let rec move_right t key (h, n) =
  let continue_right =
    n.Bnode.dead || (key >= n.Bnode.high && n.Bnode.right <> None)
  in
  if not continue_right then (h, n)
  else
    match n.Bnode.right with
    | None ->
      (* a dead node always has a right sibling (it was merged into it) *)
      assert false
    | Some rh ->
      lock t rh;
      unlock t h;
      move_right t key (rh, t.store.Bnode.read_node rh)

(* Child handle covering [key] in internal node [n]: first separator greater
   than [key] selects the child to its left. *)
let pick_child n key =
  let rec go keys children =
    match (keys, children) with
    | [], [ c ] -> c
    | s :: ks, c :: cs -> if key < s then c else go ks cs
    | _ ->
      invalid_arg
        (Printf.sprintf "malformed internal node: %d separators, %d children"
           (List.length n.Bnode.keys)
           (List.length n.Bnode.children))
  in
  go n.Bnode.keys n.Bnode.children

(* Lock-coupled descent to the leaf covering [key], accumulating the handles
   of the internal nodes passed through (deepest first). *)
let rec descend_to_leaf t key ~stack (h, n) =
  let h, n = move_right t key (h, n) in
  if Bnode.leaf n then (h, n, stack)
  else begin
    let ch = pick_child n key in
    lock t ch;
    unlock t h;
    descend_to_leaf t key ~stack:(h :: stack) (ch, t.store.Bnode.read_node ch)
  end

let locked_root t =
  let rid = Cell.get t.root in
  lock t rid;
  (rid, t.store.Bnode.read_node rid)

(* Sorted-insert of a fresh pair at version 1; an existing key gains a
   second entry (used directly only by the duplicate bug / fresh keys). *)
let rec ins_pair k v keys vals vers =
  match (keys, vals, vers) with
  | [], [], [] -> ([ k ], [ v ], [ 1 ])
  | k0 :: ks, v0 :: vs, r0 :: rs ->
    if k < k0 then (k :: keys, v :: vals, 1 :: vers)
    else
      let ks', vs', rs' = ins_pair k v ks vs rs in
      (k0 :: ks', v0 :: vs', r0 :: rs')
  | _ -> assert false

(* Overwrite in place, bumping the pair's version number (§7.2.4). *)
let rec set_val k v keys vals vers =
  match (keys, vals, vers) with
  | k0 :: ks, v0 :: vs, r0 :: rs ->
    if k = k0 then (v :: vs, (r0 + 1) :: rs)
    else
      let vs', rs' = set_val k v ks vs rs in
      (v0 :: vs', r0 :: rs')
  | _ -> assert false

let rec remove_pair k keys vals vers =
  match (keys, vals, vers) with
  | [], [], [] -> None
  | k0 :: ks, v0 :: vs, r0 :: rs ->
    if k = k0 then Some (ks, vs, rs)
    else
      Option.map
        (fun (ks', vs', rs') -> (k0 :: ks', v0 :: vs', r0 :: rs'))
        (remove_pair k ks vs rs)
  | _ -> assert false

let split_at l n =
  let rec go acc i = function
    | rest when i = 0 -> (List.rev acc, rest)
    | x :: rest -> go (x :: acc) (i - 1) rest
    | [] -> (List.rev acc, [])
  in
  go [] n l

(* Insert separator [sep] with new right child [nh] into the internal node
   covering [sep]. *)
let rec ins_sep sep nh keys children =
  match (keys, children) with
  | [], [ c ] -> ([ sep ], [ c; nh ])
  | s :: ks, c :: cs ->
    if sep < s then (sep :: keys, c :: nh :: cs)
    else
      let ks', cs' = ins_sep sep nh ks cs in
      (s :: ks', c :: cs')
  | _ -> assert false

(* Separator insertion after a split of node [expected] at [level - 1]
   (Fig. 9's post-commit restructuring; never changes the view).  [stack]
   holds known ancestors; when it runs dry the split node was the root at
   descent time — either promote a new root or find the parent that has
   appeared since. *)
let rec insert_sep t ~level ~expected sep nh stack =
  match stack with
  | p :: rest ->
    lock t p;
    let p, pn = move_right t sep (p, t.store.Bnode.read_node p) in
    add_sep t ~level ~sep ~nh (p, pn) rest
  | [] ->
    let made_root =
      Sched.with_lock t.root_meta (fun () ->
          if Cell.get t.root = expected then begin
            let nrh = t.store.Bnode.alloc () in
            t.store.Bnode.write_node nrh
              {
                Bnode.level;
                keys = [ sep ];
                vals = [];
                vers = [];
                children = [ expected; nh ];
                high = max_int;
                right = None;
                dead = false;
              };
            Cell.set t.root nrh;
            true
          end
          else false)
    in
    if not made_root then begin
      (* the root moved above us; descend to [level] to find the parent *)
      let rec descend_to_level ~stack (h, n) =
        let h, n = move_right t sep (h, n) in
        if n.Bnode.level = level then (h, n, stack)
        else begin
          assert (n.Bnode.level > level);
          let ch = pick_child n sep in
          lock t ch;
          unlock t h;
          descend_to_level ~stack:(h :: stack) (ch, t.store.Bnode.read_node ch)
        end
      in
      let p, pn, stack' = descend_to_level ~stack:[] (locked_root t) in
      add_sep t ~level ~sep ~nh (p, pn) stack'
    end

and add_sep t ~level:_ ~sep ~nh (p, pn) rest =
  let keys', children' = ins_sep sep nh pn.Bnode.keys pn.Bnode.children in
  if List.length keys' <= t.order then begin
    t.store.Bnode.write_node p { pn with Bnode.keys = keys'; children = children' };
    unlock t p
  end
  else begin
    (* split the internal node, promoting the middle separator *)
    let m = List.length keys' in
    let mid = m / 2 in
    let lk, rest_keys = split_at keys' mid in
    let msep, rk = (List.hd rest_keys, List.tl rest_keys) in
    let lc, rc = split_at children' (mid + 1) in
    let nh2 = t.store.Bnode.alloc () in
    t.store.Bnode.write_node nh2
      {
        Bnode.level = pn.Bnode.level;
        keys = rk;
        vals = [];
        vers = [];
        children = rc;
        high = pn.Bnode.high;
        right = pn.Bnode.right;
        dead = false;
      };
    t.store.Bnode.write_node p
      { pn with Bnode.keys = lk; children = lc; high = msep; right = Some nh2 };
    unlock t p;
    insert_sep t ~level:(pn.Bnode.level + 1) ~expected:p msep nh2 rest
  end

let insert t k v =
  let body () =
    let lh, ln, stack = descend_to_leaf t k ~stack:[] (locked_root t) in
    let buggy = List.mem Duplicate_data_nodes t.bugs in
    if List.mem k ln.Bnode.keys && not buggy then begin
      (* commit point 1: overwrite in place, bumping the version *)
      let vals', vers' = set_val k v ln.Bnode.keys ln.Bnode.vals ln.Bnode.vers in
      t.store.Bnode.write_node_commit lh { ln with Bnode.vals = vals'; vers = vers' };
      unlock t lh
    end
    else begin
      let keys', vals', vers' = ins_pair k v ln.Bnode.keys ln.Bnode.vals ln.Bnode.vers in
      if List.length keys' <= t.order then begin
        (* commit point 2: in-place insert *)
        t.store.Bnode.write_node_commit lh
          { ln with Bnode.keys = keys'; vals = vals'; vers = vers' };
        unlock t lh
      end
      else begin
        (* commit points 3/4: split; the halved-leaf write links the new
           sibling and publishes the new pair *)
        let mid = List.length keys' / 2 in
        let lk, rk = split_at keys' mid in
        let lv, rv = split_at vals' mid in
        let lr, rr = split_at vers' mid in
        let sep = List.hd rk in
        let nh = t.store.Bnode.alloc () in
        let sibling =
          {
            Bnode.level = 0;
            keys = rk;
            vals = rv;
            vers = rr;
            children = [];
            high = ln.Bnode.high;
            right = ln.Bnode.right;
            dead = false;
          }
        in
        let halved =
          { ln with Bnode.keys = lk; vals = lv; vers = lr; high = sep; right = Some nh }
        in
        if Faults.enabled fault_torn_split then begin
          (* seeded mutant: halved leaf first, sibling second *)
          t.store.Bnode.write_node_commit lh halved;
          t.ctx.Instrument.sched.Sched.yield ();
          t.store.Bnode.write_node nh sibling
        end
        else begin
          t.store.Bnode.write_node nh sibling;
          t.store.Bnode.write_node_commit lh halved
        end;
        unlock t lh;
        insert_sep t ~level:1 ~expected:lh sep nh stack
      end
    end;
    Repr.Unit
  in
  ignore (Instrument.op t.ctx "insert" [ Repr.Int k; Repr.Int v ] body)

let delete t k =
  let body () =
    let lh, ln, _stack = descend_to_leaf t k ~stack:[] (locked_root t) in
    let result =
      match remove_pair k ln.Bnode.keys ln.Bnode.vals ln.Bnode.vers with
      | Some (keys', vals', vers') ->
        t.store.Bnode.write_node_commit lh
          { ln with Bnode.keys = keys'; vals = vals'; vers = vers' };
        true
      | None -> false
    in
    unlock t lh;
    Repr.Bool result
  in
  Instrument.op t.ctx "delete" [ Repr.Int k ] body = Repr.Bool true

let lookup t k =
  let body () =
    let lh, ln, _stack = descend_to_leaf t k ~stack:[] (locked_root t) in
    let result =
      let rec find keys vals =
        match (keys, vals) with
        | k0 :: _, v0 :: _ when k0 = k -> Some v0
        | _ :: ks, _ :: vs -> find ks vs
        | _ -> None
      in
      find ln.Bnode.keys ln.Bnode.vals
    in
    unlock t lh;
    match result with Some v -> Repr.Int v | None -> Repr.Unit
  in
  match Instrument.op t.ctx "lookup" [ Repr.Int k ] body with
  | Repr.Int v -> Some v
  | _ -> None

(* --- compression --------------------------------------------------------- *)

let underfull t n = 2 * List.length n.Bnode.keys < t.order

(* Walk the leaf chain; merge the first underfull live leaf into its right
   sibling.  Returns true when a merge was committed. *)
let try_merge t =
  let rec leftmost_leaf (h, n) =
    if Bnode.leaf n then (h, n)
    else begin
      let ch = List.hd n.Bnode.children in
      lock t ch;
      unlock t h;
      leftmost_leaf (ch, t.store.Bnode.read_node ch)
    end
  in
  let rec walk (h, n) =
    match n.Bnode.right with
    | None ->
      unlock t h;
      false
    | Some rh ->
      if (not n.Bnode.dead) && underfull t n then begin
        lock t rh;
        let rn = t.store.Bnode.read_node rh in
        if
          (not rn.Bnode.dead)
          && List.length n.Bnode.keys + List.length rn.Bnode.keys <= t.order
        then begin
          (* both leaves change together: a commit block keeps the replayed
             view from ever seeing the pairs duplicated or dropped *)
          Instrument.with_block t.ctx (fun () ->
              t.store.Bnode.write_node rh
                {
                  rn with
                  Bnode.keys = n.Bnode.keys @ rn.Bnode.keys;
                  vals = n.Bnode.vals @ rn.Bnode.vals;
                  vers = n.Bnode.vers @ rn.Bnode.vers;
                };
              t.store.Bnode.write_node h
                { n with Bnode.keys = []; vals = []; vers = []; dead = true };
              Instrument.commit t.ctx);
          unlock t rh;
          unlock t h;
          true
        end
        else begin
          unlock t h;
          walk (rh, rn)
        end
      end
      else begin
        lock t rh;
        unlock t h;
        walk (rh, t.store.Bnode.read_node rh)
      end
  in
  let root = locked_root t in
  if Bnode.leaf (snd root) then begin
    unlock t (fst root);
    false
  end
  else walk (leftmost_leaf root)

(* Unlink one dead child from its parent.  Removing entry [i] hands its key
   range to entry [i+1], so it is sound only when child [i+1] is the dead
   node's direct chain successor — the sibling that absorbed its pairs.  (A
   split can interpose a new entry between a dead child and its absorber, in
   which case the dead entry must stay: it still routes through its right
   link.)  Returns true when an unlink was committed. *)
let try_unlink t =
  let remove_entry n i =
    let rec drop_nth i = function
      | [] -> []
      | _ :: rest when i = 0 -> rest
      | x :: rest -> x :: drop_nth (i - 1) rest
    in
    {
      n with
      Bnode.keys = drop_nth i n.Bnode.keys;
      children = drop_nth i n.Bnode.children;
    }
  in
  let removable n =
    (* index i with children[i] dead and children[i+1] its absorber *)
    let rec go i = function
      | c :: (next :: _ as rest) ->
        let cn = t.store.Bnode.read_node c in
        if cn.Bnode.dead && cn.Bnode.right = Some next then Some i
        else go (i + 1) rest
      | [ _ ] | [] -> None
    in
    go 0 n.Bnode.children
  in
  (* scan one level: [h] locked, internal *)
  let rec scan_level (h, n) =
    match removable n with
    | Some i ->
      t.store.Bnode.write_node_commit h (remove_entry n i);
      unlock t h;
      true
    | None -> (
      match n.Bnode.right with
      | Some rh ->
        lock t rh;
        unlock t h;
        scan_level (rh, t.store.Bnode.read_node rh)
      | None ->
        unlock t h;
        false)
  in
  (* descend the leftmost spine, trying each internal level *)
  let rec levels (h, n) =
    if Bnode.leaf n then begin
      unlock t h;
      false
    end
    else begin
      let ch = List.hd n.Bnode.children in
      (* remember where the next level starts before scanning this one *)
      lock t ch;
      let cn = t.store.Bnode.read_node ch in
      if scan_level (h, n) then begin
        unlock t ch;
        true
      end
      else levels (ch, cn)
    end
  in
  levels (locked_root t)

let compress t =
  let body () =
    let merged = try_merge t in
    let acted = merged || try_unlink t in
    if not acted then Instrument.commit t.ctx;
    Repr.Unit
  in
  ignore (Instrument.op t.ctx "compress" [] body)

(* --- view ---------------------------------------------------------------- *)

let viewdef : View.t =
  View.Full
    (fun lookup ->
      let node_of h =
        match lookup (Bnode.var h) with
        | Some r -> ( try Some (Bnode.of_repr r) with Repr.Parse_error _ -> None)
        | None -> None
      in
      let pairs = ref [] in
      let visited = Hashtbl.create 32 in
      let rec chain h =
        if not (Hashtbl.mem visited h) then begin
          Hashtbl.replace visited h ();
          match node_of h with
          | None -> ()
          | Some n ->
            if not n.Bnode.dead then begin
              let rec collect keys vals vers =
                match (keys, vals, vers) with
                | [], [], [] -> ()
                | k :: ks, v :: vs, r :: rs ->
                  pairs :=
                    (Repr.Int k, Repr.Pair (Repr.Int v, Repr.Int r)) :: !pairs;
                  collect ks vs rs
                | _ -> ()  (* malformed shadow node: contribute nothing *)
              in
              collect n.Bnode.keys n.Bnode.vals n.Bnode.vers
            end;
            Option.iter chain n.Bnode.right
        end
      in
      let rec leftmost h =
        match node_of h with
        | Some n when not (Bnode.leaf n) -> leftmost (List.hd n.Bnode.children)
        | Some _ | None -> h
      in
      (match lookup "tree.root" with
      | Some (Repr.Int rid) -> chain (leftmost rid)
      | Some _ | None -> ());
      View.canonical_of_assoc !pairs)

(* --- specification ------------------------------------------------------- *)

module IntMap = Map.Make (Int)

module S = struct
  (* key -> (value, version); the version counts overwrites since the key
     was (re-)inserted, mirroring §7.2.4's view *)
  type state = (int * int) IntMap.t

  let name = "blink-tree"
  let init () = IntMap.empty

  let kind = function
    | "insert" | "delete" -> Spec.Mutator
    | "lookup" -> Spec.Observer
    | "compress" -> Spec.Internal
    | m -> invalid_arg ("blink-tree spec: unknown method " ^ m)

  type meth = string
  let meth = Spec.by_name kind

  let bad fmt = Printf.ksprintf (fun m -> Error m) fmt

  let apply st ~mid ~args ~ret =
    match (mid, args, ret) with
    | "insert", [ Repr.Int k; Repr.Int v ], Repr.Unit ->
      let ver = match IntMap.find_opt k st with Some (_, r) -> r + 1 | None -> 1 in
      Ok (IntMap.add k (v, ver) st)
    | "delete", [ Repr.Int k ], Repr.Bool true ->
      if IntMap.mem k st then Ok (IntMap.remove k st)
      else bad "delete(%d) returned true but %d is not in the tree" k k
    | "delete", [ Repr.Int k ], Repr.Bool false ->
      if IntMap.mem k st then bad "delete(%d) returned false but %d is in the tree" k k
      else Ok st
    | "compress", [], Repr.Unit -> Ok st
    | mid, _, _ -> bad "no %s transition matches the observed arguments/return" mid

  let observe st ~mid ~args ~ret =
    match (mid, args, ret) with
    | "lookup", [ Repr.Int k ], Repr.Int v ->
      (match IntMap.find_opt k st with Some (v', _) -> v' = v | None -> false)
    | "lookup", [ Repr.Int k ], Repr.Unit -> not (IntMap.mem k st)
    | "delete", [ Repr.Int k ], Repr.Bool false -> not (IntMap.mem k st)
    | "compress", [], Repr.Unit -> true
    | _ -> false

  let view st =
    View.canonical_of_assoc
      (IntMap.fold
         (fun k (v, r) acc -> (Repr.Int k, Repr.Pair (Repr.Int v, Repr.Int r)) :: acc)
         st [])

  let snapshot st = st

  let save st =
    Some
      (Repr.List
         (IntMap.fold
            (fun k (v, r) acc ->
              Repr.Pair (Repr.Int k, Repr.Pair (Repr.Int v, Repr.Int r)) :: acc)
            st []))

  let load = function
    | Repr.List kvs ->
      List.fold_left
        (fun st -> function
          | Repr.Pair (Repr.Int k, Repr.Pair (Repr.Int v, Repr.Int r)) ->
            IntMap.add k (v, r) st
          | v -> invalid_arg ("blink-tree spec: bad saved entry " ^ Repr.to_string v))
        IntMap.empty kvs
    | v -> invalid_arg ("blink-tree spec: bad saved state " ^ Repr.to_string v)
end

let spec : Spec.t = (module S)

(* --- unsafe inspection ---------------------------------------------------- *)

let unsafe_contents t =
  let pairs = ref [] in
  let visited = Hashtbl.create 32 in
  let rec leftmost h =
    let n = t.store.Bnode.read_node h in
    if Bnode.leaf n then h else leftmost (List.hd n.Bnode.children)
  in
  let rec chain h =
    if not (Hashtbl.mem visited h) then begin
      Hashtbl.replace visited h ();
      let n = t.store.Bnode.read_node h in
      if not n.Bnode.dead then
        List.iter2 (fun k v -> pairs := (k, v) :: !pairs) n.Bnode.keys n.Bnode.vals;
      Option.iter chain n.Bnode.right
    end
  in
  chain (leftmost (Cell.peek t.root));
  List.sort compare !pairs

let unsafe_height t =
  (t.store.Bnode.read_node (Cell.peek t.root)).Bnode.level + 1
