open Vyrd
module Sched = Vyrd_sched.Sched
module Cell = Instrument.Cell
module Faults = Vyrd_faults.Faults

(* Seeded mutant (lib/faults): FindSlot claims a free slot with no lock at
   all — racier than the paper's Fig. 5 bug, which at least locks the store.
   Two threads can reserve the same slot and one element is silently lost;
   view refinement fires at the next commit whose replayed slot array
   disagrees with the specification multiset. *)
let fault_lost_update =
  Faults.define ~name:"multiset_vector.lost_update" ~subject:"Multiset-Vector"
    ~description:
      "FindSlot claims a free slot without taking the slot lock; concurrent \
       inserts reserve the same slot and one element is lost"
    ()

type bug = Racy_find_slot | Misplaced_commit

type slot = { elt : int option Cell.t; valid : bool Cell.t; lock : Sched.mutex }

type t = { ctx : Instrument.ctx; slots : slot array; bugs : bug list }

type outcome = Success | Failure

let elt_repr = function None -> Repr.Unit | Some x -> Repr.Int x

let elt_var i = Printf.sprintf "A[%d].elt" i
let valid_var i = Printf.sprintf "A[%d].valid" i

let create ?(bugs = []) ~capacity ctx =
  let slot i =
    {
      elt = Cell.make ctx ~name:(elt_var i) ~repr:elt_repr None;
      valid = Cell.make ctx ~name:(valid_var i) ~repr:(fun b -> Repr.Bool b) false;
      lock = Instrument.mutex ctx ~name:(Printf.sprintf "A[%d]" i);
    }
  in
  { ctx; slots = Array.init capacity slot; bugs }

let capacity t = Array.length t.slots
let has_bug t b = List.mem b t.bugs

(* Fig. 2: reserve the first free slot by writing the element under the
   slot's lock; -1 when the array is full.  With [Racy_find_slot] the
   emptiness test happens before the lock is taken (Fig. 5), so two threads
   may reserve the same slot. *)
let find_slot t x =
  let n = capacity t in
  let racy = has_bug t Racy_find_slot in
  let lost_update = Faults.enabled fault_lost_update in
  let rec go i =
    if i >= n then -1
    else
      let s = t.slots.(i) in
      let reserved =
        if lost_update then
          (* seeded mutant: emptiness test and claim with no lock anywhere *)
          Cell.get s.elt = None
          && begin
               Cell.set s.elt (Some x);
               true
             end
        else if racy then
          if Cell.get s.elt = None then begin
            Sched.with_lock s.lock (fun () -> Cell.set s.elt (Some x));
            true
          end
          else false
        else
          Sched.with_lock s.lock (fun () ->
              if Cell.get s.elt = None then begin
                Cell.set s.elt (Some x);
                true
              end
              else false)
      in
      if reserved then i else go (i + 1)
  in
  go 0

let insert t x =
  let body () =
    if has_bug t Misplaced_commit then begin
      (* §4.1: a wrong commit-point annotation on a CORRECT implementation.
         Committing at the slot reservation — before the valid bit publishes
         the element — yields a wrong witness interleaving, and refinement
         checking flags it even though the code has no concurrency bug.
         "If the witness interleaving is wrong, the programmer must
         re-examine and modify the commit point selection." *)
      let n = capacity t in
      let rec go i =
        if i >= n then Repr.failure
        else
          let s = t.slots.(i) in
          let reserved =
            Sched.with_lock s.lock (fun () ->
                if Cell.get s.elt = None then begin
                  Cell.set_and_commit s.elt (Some x);
                  (* commit too early *)
                  true
                end
                else false)
          in
          if reserved then begin
            Sched.with_lock s.lock (fun () -> Cell.set s.valid true);
            Repr.success
          end
          else go (i + 1)
      in
      go 0
    end
    else
      let i = find_slot t x in
      if i = -1 then
        (* Exceptional termination: no commit action — the execution did not
           mutate and is window-checked like an observer. *)
        Repr.failure
      else begin
        let s = t.slots.(i) in
        Sched.with_lock s.lock (fun () -> Cell.set_and_commit s.valid true);
        Repr.success
      end
  in
  let ret = Instrument.op t.ctx Multiset_spec.mid_insert [ Repr.Int x ] body in
  if Repr.is_success ret then Success else Failure

(* Fig. 4.  Both valid bits are published inside a commit block; the commit
   action is the second bit — the point where the new view becomes visible
   to other threads (§2.1). *)
let insert_pair t x y =
  let body () =
    let i = find_slot t x in
    if i = -1 then Repr.failure
    else
      let j = find_slot t y in
      if j = -1 then begin
        (* free the slot reserved for x; the execution commits nothing *)
        let si = t.slots.(i) in
        Sched.with_lock si.lock (fun () -> Cell.set si.elt None);
        Repr.failure
      end
      else begin
        let lo, hi = if i < j then (i, j) else (j, i) in
        let slo = t.slots.(lo) and shi = t.slots.(hi) in
        Instrument.with_block t.ctx (fun () ->
            Sched.with_lock slo.lock (fun () ->
                Sched.with_lock shi.lock (fun () ->
                    Cell.set slo.valid true;
                    Cell.set_and_commit shi.valid true)));
        Repr.success
      end
  in
  let ret =
    Instrument.op t.ctx Multiset_spec.mid_insert_pair [ Repr.Int x; Repr.Int y ] body
  in
  if Repr.is_success ret then Success else Failure

(* Run [f] with every slot lock held, acquiring in ascending index order
   (consistent with [insert_pair]'s lo-before-hi order, so deadlock-free). *)
let with_all_locks t f =
  Array.iter (fun s -> s.lock.Sched.lock ()) t.slots;
  match f () with
  | v ->
    Array.iter (fun s -> s.lock.Sched.unlock ()) t.slots;
    v
  | exception e ->
    Array.iter (fun s -> s.lock.Sched.unlock ()) t.slots;
    raise e

let delete t x =
  let body () =
    with_all_locks t (fun () ->
        let n = capacity t in
        let rec go i =
          if i >= n then Repr.Bool false
          else
            let s = t.slots.(i) in
            if Cell.get s.elt = Some x && Cell.get s.valid then begin
              Cell.set_and_commit s.valid false;
              Cell.set s.elt None;
              Repr.Bool true
            end
            else go (i + 1)
        in
        go 0)
  in
  Instrument.op t.ctx Multiset_spec.mid_delete [ Repr.Int x ] body = Repr.Bool true

(* Fig. 2's per-slot scanning Delete.  Kept for the paper's figures: a
   false return is justified only if some instant in the window had no
   occurrence of [x], which a scan cannot guarantee when elements migrate
   between slots — VYRD correctly reports such runs (see
   [scan_lookup]). *)
let scan_delete t x =
  let body () =
    let n = capacity t in
    let rec go i =
      if i >= n then Repr.Bool false
      else
        let s = t.slots.(i) in
        let removed =
          Sched.with_lock s.lock (fun () ->
              if Cell.get s.elt = Some x && Cell.get s.valid then begin
                Cell.set_and_commit s.valid false;
                Cell.set s.elt None;
                true
              end
              else false)
        in
        if removed then Repr.Bool true else go (i + 1)
    in
    go 0
  in
  Instrument.op t.ctx Multiset_spec.mid_delete [ Repr.Int x ] body = Repr.Bool true

let lookup t x =
  let body () =
    with_all_locks t (fun () ->
        Repr.Bool
          (Array.exists
             (fun s -> Cell.get s.elt = Some x && Cell.get s.valid)
             t.slots))
  in
  Instrument.op t.ctx Multiset_spec.mid_lookup [ Repr.Int x ] body = Repr.Bool true

(* Fig. 2's LookUp: locks one slot at a time.  Linearizable only in the
   absence of same-element slot migration; a reproduction finding documented
   in DESIGN.md — refinement checking flags the weakly consistent scan. *)
let scan_lookup t x =
  let body () =
    let n = capacity t in
    let rec go i =
      if i >= n then Repr.Bool false
      else
        let s = t.slots.(i) in
        let found =
          Sched.with_lock s.lock (fun () -> Cell.get s.elt = Some x && Cell.get s.valid)
        in
        if found then Repr.Bool true else go (i + 1)
    in
    go 0
  in
  Instrument.op t.ctx Multiset_spec.mid_lookup [ Repr.Int x ] body = Repr.Bool true

let count t x =
  let body () =
    with_all_locks t (fun () ->
        let n =
          Array.fold_left
            (fun acc s ->
              if Cell.get s.elt = Some x && Cell.get s.valid then acc + 1 else acc)
            0 t.slots
        in
        Repr.Int n)
  in
  match Instrument.op t.ctx Multiset_spec.mid_count [ Repr.Int x ] body with
  | Repr.Int n -> n
  | _ -> assert false

let viewdef ~capacity : View.t =
  (* var names are precomputed once: the closure below runs at every commit
     of the run, and a sprintf per slot per commit dominates the checker's
     view path *)
  let valid_vars = Array.init capacity valid_var in
  let elt_vars = Array.init capacity elt_var in
  View.Full
    (fun lookup ->
      (* the valid elements, kept in ascending order as they are found,
         [elts.(0 .. !n - 1)]; the array is the call's own, since one view
         definition may serve checkers on several domains *)
      let elts = Array.make capacity 0 and n = ref 0 in
      for i = 0 to capacity - 1 do
        match (lookup valid_vars.(i), lookup elt_vars.(i)) with
        | Some (Repr.Bool true), Some (Repr.Int x) ->
          let j = ref !n in
          while !j > 0 && elts.(!j - 1) > x do
            elts.(!j) <- elts.(!j - 1);
            decr j
          done;
          elts.(!j) <- x;
          incr n
        | _ -> ()
      done;
      (* one (element, multiplicity) entry per run, built from the last *)
      let rec entries acc j =
        if j < 0 then acc
        else
          let x = elts.(j) in
          let k = ref j in
          while !k > 0 && elts.(!k - 1) = x do
            decr k
          done;
          entries (Repr.Pair (Repr.int x, Repr.int (j - !k + 1)) :: acc) (!k - 1)
      in
      Repr.List (entries [] (!n - 1)))

let unsafe_contents t =
  Array.to_list t.slots
  |> List.filter_map (fun s ->
         match (Cell.peek s.valid, Cell.peek s.elt) with
         | true, Some x -> Some x
         | _ -> None)
