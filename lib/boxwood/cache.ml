open Vyrd
module Sched = Vyrd_sched.Sched
module Cell = Instrument.Cell
module Faults = Vyrd_faults.Faults

(* Seeded mutant (lib/faults): FLUSH marks dirty entries clean without
   writing them back, so the chunk store silently keeps stale bytes.  The
   corruption is latent — the clean entry still masks the chunk — until an
   evict drops the entry and re-exposes the stale chunk: exactly the paper's
   §7.2.2 scenario of corrupted state sitting in the store long before any
   return value shows it.  The runtime invariant "a clean entry matches the
   chunk manager" (§7.2.1) catches it already at the flush. *)
let fault_stale_writeback =
  Faults.define ~name:"cache.stale_writeback" ~subject:"Cache"
    ~description:
      "flush marks dirty entries clean without writing them back; the chunk \
       store keeps stale bytes that a later evict re-exposes as a stale read"
    ()

(* Seeded lock-order inversion: every other path that touches both locks
   (READ on a missing entry, EVICT of a dirty entry) acquires LOCK(clean)
   and only then the chunk manager's lock; the armed FLUSH wraps its body in
   the chunk-manager lock *first*.  A worker blocked in READ holding "clean"
   and the flush daemon holding "chunkmgr" then deadlock — some schedules
   genuinely hang (Explore finds them), and any single healthy `Full trace
   exhibiting both orders gives Lockgraph its clean->chunkmgr->clean cycle. *)
let fault_lock_order_inversion =
  Faults.define ~kind:Faults.Deadlock ~name:"cache.lock_order_inversion"
    ~subject:"Cache"
    ~description:
      "flush acquires the chunk-manager lock before LOCK(clean), opposite \
       to the read/evict paths; schedules exist that deadlock, and the \
       lock-order graph flags the inversion from one non-deadlocking trace"
    ()

(* Benign counterpart, pinning the analysis' false-positive rate: the same
   ABBA shape on two dedicated locks, but every inverted section runs under
   a common gate lock, so no interleaving can actually deadlock.  Armed runs
   stay correct and no detector may fire — Lockgraph's gate suppression must
   classify the cycle as benign. *)
let fault_gated_inversion =
  Faults.define ~kind:Faults.Benign ~name:"cache.gated_lock_inversion"
    ~subject:"Cache"
    ~description:
      "write takes gate->order_a->order_b while flush takes \
       gate->order_b->order_a; the common gate makes the inversion \
       unreachable, so the lock-order graph must stay silent"
    ()

(* Ground truth for the resource-leak temporal monitor: a lock acquired and
   never released.  Reentrancy keeps later armed flushes from blocking on
   their own abandoned acquisition, and no other path touches [stray], so
   armed runs complete with correct results — only the monitor's
   end-of-stream resolution can see the still-held lock. *)
let fault_unreleased_lock =
  Faults.define ~kind:Faults.Leak ~semantic:false
    ~name:"cache.unreleased_lock" ~subject:"Cache"
    ~description:
      "flush acquires a stray instrumented lock and returns without \
       releasing it; the resource-leak monitor must convict at stream end \
       with the still-held set while refinement stays clean"
    ()

type bug = Unprotected_dirty_copy

type entry_state = Absent | Clean | Dirty

type entry = { state : entry_state Cell.t; data : char Cell.t array }

type t = {
  ctx : Instrument.ctx;
  cm : Chunk_manager.t;
  reclaim : Sched.rwlock;
  clean_lock : Sched.mutex;  (* Fig. 8's LOCK(clean) *)
  (* instrumented locks used only by the armed [fault_gated_inversion] *)
  gate : Sched.mutex;
  order_a : Sched.mutex;
  order_b : Sched.mutex;
  (* instrumented lock used only by the armed [fault_unreleased_lock] *)
  stray : Sched.mutex;
  entries : entry array;
  buf_size : int;
  bugs : bug list;
}

let state_var h = Printf.sprintf "cache.state[%d]" h
let data_var h j = Printf.sprintf "cache.data[%d][%d]" h j

let state_repr = function
  | Absent -> Repr.Str "none"
  | Clean -> Repr.Str "clean"
  | Dirty -> Repr.Str "dirty"

let create ?(bugs = []) ~buf_size ctx cm =
  let entry h =
    {
      state = Cell.make ctx ~name:(state_var h) ~repr:state_repr Absent;
      data =
        Array.init buf_size (fun j ->
            Cell.make ctx ~name:(data_var h j)
              ~repr:(fun c -> Repr.Str (String.make 1 c))
              '\000');
    }
  in
  {
    ctx;
    cm;
    reclaim = ctx.Instrument.sched.Sched.new_rwlock ~name:"reclaim" ();
    clean_lock = Instrument.mutex ctx ~name:"clean";
    gate = Instrument.mutex ctx ~name:"gate";
    order_a = Instrument.mutex ctx ~name:"order_a";
    order_b = Instrument.mutex ctx ~name:"order_b";
    stray = Instrument.mutex ctx ~name:"stray";
    entries = Array.init (Chunk_manager.handles cm) entry;
    buf_size;
    bugs;
  }

let entry t h =
  if h < 0 || h >= Array.length t.entries then
    invalid_arg (Printf.sprintf "cache: no handle %d" h);
  t.entries.(h)

let pad t s =
  let n = String.length s in
  if n = t.buf_size then s
  else if n > t.buf_size then String.sub s 0 t.buf_size
  else s ^ String.make (t.buf_size - n) '\000'

(* Fig. 8's COPY-TO-CACHE: an in-place byte-by-byte copy. *)
let copy_to_cache t e data =
  let data = pad t data in
  Array.iteri (fun j cell -> Cell.set cell data.[j]) e.data

(* Live read of an entry's buffer — deliberately not atomic: a concurrent
   in-place copy yields a torn mix, which is the corruption of §7.2.2. *)
let read_entry e = String.init (Array.length e.data) (fun j -> Cell.get e.data.(j))

let buggy t = List.mem Unprotected_dirty_copy t.bugs

(* Fig. 8 WRITE.  Three commit points: publishing a new entry on the dirty
   list, republishing a clean entry as dirty, and completing the in-place
   copy to an already-dirty entry. *)
let write t h data =
  let body () =
    if Faults.enabled fault_gated_inversion then
      (* gate -> order_a -> order_b; flush does the opposite inner order
         under the same gate, from a different thread *)
      Sched.with_lock t.gate (fun () ->
          Sched.with_lock t.order_a (fun () ->
              Sched.with_lock t.order_b (fun () -> ())));
    t.reclaim.Sched.begin_read ();
    let e = entry t h in
    t.clean_lock.Sched.lock ();
    (match Cell.get e.state with
    | Absent | Clean ->
      Instrument.with_block t.ctx (fun () ->
          copy_to_cache t e data;
          Cell.set_and_commit e.state Dirty);
      t.clean_lock.Sched.unlock ()
    | Dirty ->
      if buggy t then begin
        (* BUG (§7.2.2): the copy to the dirty entry is not protected by
           LOCK(clean); a concurrent FLUSH can interleave. *)
        t.clean_lock.Sched.unlock ();
        Instrument.with_block t.ctx (fun () ->
            copy_to_cache t e data;
            Instrument.commit t.ctx)
      end
      else begin
        Instrument.with_block t.ctx (fun () ->
            copy_to_cache t e data;
            Instrument.commit t.ctx);
        t.clean_lock.Sched.unlock ()
      end);
    t.reclaim.Sched.end_read ();
    Repr.Unit
  in
  ignore (Instrument.op t.ctx "write" [ Repr.Int h; Repr.Str (pad t data) ] body)

let read t h =
  let body () =
    t.reclaim.Sched.begin_read ();
    let e = entry t h in
    let v =
      Sched.with_lock t.clean_lock (fun () ->
          match Cell.get e.state with
          | Absent ->
            let s = Chunk_manager.read t.cm h in
            if s = "" then "" else pad t s
          | Clean | Dirty -> read_entry e)
    in
    t.reclaim.Sched.end_read ();
    Repr.Str v
  in
  match Instrument.op t.ctx "read" [ Repr.Int h ] body with
  | Repr.Str s -> s
  | _ -> assert false

let read_fill t h =
  let body () =
    t.reclaim.Sched.begin_read ();
    let e = entry t h in
    let v =
      Sched.with_lock t.clean_lock (fun () ->
          match Cell.get e.state with
          | Absent ->
            let s = Chunk_manager.read t.cm h in
            if s = "" then ""
            else begin
              (* install a clean entry holding exactly the chunk bytes;
                 view-neutral, so no commit action *)
              let s = pad t s in
              copy_to_cache t e s;
              Cell.set e.state Clean;
              s
            end
          | Clean | Dirty -> read_entry e)
    in
    t.reclaim.Sched.end_read ();
    Repr.Str v
  in
  match Instrument.op t.ctx "read" [ Repr.Int h ] body with
  | Repr.Str s -> s
  | _ -> assert false

(* Fig. 8 FLUSH: one internal execution, one commit; the abstract store is
   unchanged (dirty bytes become chunk bytes but keep masking them). *)
let flush t =
  let body () =
    if Faults.enabled fault_unreleased_lock then
      (* MUTANT: acquire and never release — the unlock is simply missing.
         Each armed flush re-acquires reentrantly, so the run completes;
         the stream just ends with [stray] held. *)
      t.stray.Sched.lock ();
    if Faults.enabled fault_gated_inversion then
      (* gate -> order_b -> order_a: inverted w.r.t. [write], but benign —
         the shared gate serializes the two sections *)
      Sched.with_lock t.gate (fun () ->
          Sched.with_lock t.order_b (fun () ->
              Sched.with_lock t.order_a (fun () -> ())));
    let flush_entries () =
      Sched.with_lock t.clean_lock (fun () ->
          Instrument.with_block t.ctx (fun () ->
              Array.iteri
                (fun h e ->
                  if Cell.get e.state = Dirty then begin
                    if not (Faults.enabled fault_stale_writeback) then
                      Chunk_manager.write t.cm h (read_entry e);
                    Cell.set e.state Clean
                  end)
                t.entries;
              Instrument.commit t.ctx))
    in
    if Faults.enabled fault_lock_order_inversion then
      (* MUTANT: take the chunk-manager lock *before* LOCK(clean) — the
         opposite of every read/evict path.  The nested Chunk_manager.write
         re-acquisition is reentrant, so the armed flush itself is fine; the
         hazard is the inverted order against concurrent readers. *)
      Sched.with_lock (Chunk_manager.lock t.cm) flush_entries
    else flush_entries ();
    Repr.Unit
  in
  ignore (Instrument.op t.ctx "flush" [] body)

let evict t h =
  let body () =
    t.reclaim.Sched.begin_write ();
    let e = entry t h in
    Sched.with_lock t.clean_lock (fun () ->
        match Cell.get e.state with
        | Absent -> Instrument.commit t.ctx
        | Clean ->
          (* trusted to match the chunk — no write-back; with a corrupted
             chunk this commit is where view refinement fires *)
          Cell.set_and_commit e.state Absent
        | Dirty ->
          Instrument.with_block t.ctx (fun () ->
              Chunk_manager.write t.cm h (read_entry e);
              Cell.set e.state Absent;
              Instrument.commit t.ctx));
    t.reclaim.Sched.end_write ();
    Repr.Unit
  in
  ignore (Instrument.op t.ctx "evict" [ Repr.Int h ] body)

(* Views ------------------------------------------------------------------ *)

(* The view's variable names, built once with the definition: a view looks
   them up at every recompute, and a component's lookup trail reads its
   cell directly only for a name it has seen physically before. *)
type names = { state : string array; data : string array array; chunk : string array }

let names ~chunks ~buf_size =
  {
    state = Array.init chunks state_var;
    data = Array.init chunks (fun h -> Array.init buf_size (data_var h));
    chunk = Array.init chunks Chunk_manager.var;
  }

let lookup_state names lookup h =
  match lookup names.state.(h) with
  | Some (Repr.Str "clean") -> Clean
  | Some (Repr.Str "dirty") -> Dirty
  | Some _ | None -> Absent

let lookup_entry_bytes names lookup h =
  let data = names.data.(h) in
  String.init (Array.length data) (fun j ->
      match lookup data.(j) with
      | Some (Repr.Str s) when String.length s = 1 -> s.[0]
      | _ -> '\000')

let pad_to n s =
  let l = String.length s in
  if l = 0 then ""
  else if l >= n then String.sub s 0 n
  else s ^ String.make (n - l) '\000'

let lookup_chunk_bytes names lookup h =
  match lookup names.chunk.(h) with
  | Some (Repr.Str s) -> pad_to (Array.length names.data.(h)) s
  | Some _ | None -> ""

(* Handle [h]'s abstract bytes; handles never written map to [None] and
   are omitted, so the Full and Keyed views and the specification all agree
   on the canonical form: the assoc of written handles only. *)
let abstract_value names lookup h =
  let bytes =
    match lookup_state names lookup h with
    | Clean | Dirty -> lookup_entry_bytes names lookup h
    | Absent -> lookup_chunk_bytes names lookup h
  in
  if bytes = "" then None else Some (Repr.Str bytes)

let viewdef ~chunks ~buf_size : View.t =
  let names = names ~chunks ~buf_size in
  View.Full
    (fun lookup ->
      View.canonical_of_assoc
        (List.filter_map
           (fun h ->
             match abstract_value names lookup h with
             | Some v -> Some (Repr.Int h, v)
             | None -> None)
           (List.init chunks Fun.id)))

let viewdef_keyed ~chunks ~buf_size : View.t =
  let names = names ~chunks ~buf_size in
  View.Keyed
    {
      keys = List.init chunks (fun h -> Repr.Int h);
      project =
        (fun lookup -> function
          | Repr.Int h -> abstract_value names lookup h
          | _ -> None);
    }

let invariant_clean_matches_chunk ~chunks ~buf_size : Checker.invariant =
  let names = names ~chunks ~buf_size in
  ( "clean cache entry matches chunk manager",
    fun lookup ->
      List.for_all
        (fun h ->
          match lookup_state names lookup h with
          | Clean -> lookup_entry_bytes names lookup h = lookup_chunk_bytes names lookup h
          | Dirty | Absent -> true)
        (List.init chunks Fun.id) )

(* Specification: the abstract data store. ------------------------------- *)

module IntMap = Map.Make (Int)

let spec ~chunks : Spec.t =
  let module S = struct
    type state = string IntMap.t

    let name = "cache+chunk store"
    let init () = IntMap.empty

    let kind = function
      | "write" -> Spec.Mutator
      | "read" -> Spec.Observer
      | "flush" | "evict" -> Spec.Internal
      | m -> invalid_arg ("cache spec: unknown method " ^ m)

    type meth = string
    let meth = Spec.by_name kind

    let bad fmt = Printf.ksprintf (fun m -> Error m) fmt
    let contents st h = match IntMap.find_opt h st with Some s -> s | None -> ""

    let apply st ~mid ~args ~ret =
      match (mid, args, ret) with
      | "write", [ Repr.Int h; Repr.Str d ], Repr.Unit ->
        if h >= 0 && h < chunks then Ok (IntMap.add h d st)
        else bad "write to unknown handle %d" h
      | "flush", [], Repr.Unit -> Ok st
      | "evict", [ Repr.Int _ ], Repr.Unit -> Ok st
      | mid, _, _ -> bad "no %s transition matches the observed arguments/return" mid

    let observe st ~mid ~args ~ret =
      match (mid, args, ret) with
      | "read", [ Repr.Int h ], Repr.Str s -> s = contents st h
      | ("flush" | "evict"), _, Repr.Unit -> true
      | _ -> false

    let view st =
      View.canonical_of_assoc
        (IntMap.fold
           (fun h s acc -> if s = "" then acc else (Repr.Int h, Repr.Str s) :: acc)
           st [])

    let snapshot st = st

    let save st =
      Some
        (Repr.List
           (IntMap.fold (fun h s acc -> Repr.Pair (Repr.Int h, Repr.Str s) :: acc) st []))

    let load = function
      | Repr.List kvs ->
        List.fold_left
          (fun st -> function
            | Repr.Pair (Repr.Int h, Repr.Str s) -> IntMap.add h s st
            | v -> invalid_arg ("cache spec: bad saved entry " ^ Repr.to_string v))
          IntMap.empty kvs
      | v -> invalid_arg ("cache spec: bad saved state " ^ Repr.to_string v)
  end in
  (module S)
