open Vyrd
module Sched = Vyrd_sched.Sched
module Cell = Instrument.Cell

type bug = Non_atomic_last_index_of

type t = {
  ctx : Instrument.ctx;
  lock : Sched.mutex;
  count : int Cell.t;
  elems : int Cell.t array;
  bugs : bug list;
}

type outcome = Success | Failure

let count_var = "count"
let elem_var i = Printf.sprintf "elem[%d]" i

let create ?(bugs = []) ~capacity ctx =
  {
    ctx;
    lock = Instrument.mutex ctx ~name:"vector";
    count = Cell.make ctx ~name:count_var ~repr:(fun c -> Repr.Int c) 0;
    elems =
      Array.init capacity (fun i ->
          Cell.make ctx ~name:(elem_var i) ~repr:(fun x -> Repr.Int x) 0);
    bugs;
  }

let capacity t = Array.length t.elems

let add t x =
  let body () =
    Sched.with_lock t.lock (fun () ->
        let c = Cell.get t.count in
        if c >= capacity t then Repr.failure
        else begin
          Cell.set t.elems.(c) x;
          Cell.set_and_commit t.count (c + 1);
          Repr.success
        end)
  in
  if Repr.is_success (Instrument.op t.ctx "add" [ Repr.Int x ] body) then Success
  else Failure

let remove_last t =
  let body () =
    Sched.with_lock t.lock (fun () ->
        let c = Cell.get t.count in
        if c = 0 then Repr.Bool false
        else begin
          (* The stale element beyond the new count stays in its slot, as in
             the JDK — feeding the lastIndexOf bug. *)
          Cell.set_and_commit t.count (c - 1);
          Repr.Bool true
        end)
  in
  Instrument.op t.ctx "remove_last" [] body = Repr.Bool true

(* Shifting updates touch several visible slots; brackets them in a commit
   block so the replayed view only changes at the count write. *)
let insert_at t i x =
  let body () =
    Sched.with_lock t.lock (fun () ->
        let c = Cell.get t.count in
        if i < 0 || i > c || c >= capacity t then Repr.failure
        else begin
          Instrument.with_block t.ctx (fun () ->
              for j = c - 1 downto i do
                Cell.set t.elems.(j + 1) (Cell.get t.elems.(j))
              done;
              Cell.set t.elems.(i) x;
              Cell.set_and_commit t.count (c + 1));
          Repr.success
        end)
  in
  if Repr.is_success (Instrument.op t.ctx "insert_at" [ Repr.Int i; Repr.Int x ] body)
  then Success
  else Failure

let remove_at t i =
  let body () =
    Sched.with_lock t.lock (fun () ->
        let c = Cell.get t.count in
        if i < 0 || i >= c then Repr.Bool false
        else begin
          Instrument.with_block t.ctx (fun () ->
              for j = i to c - 2 do
                Cell.set t.elems.(j) (Cell.get t.elems.(j + 1))
              done;
              Cell.set_and_commit t.count (c - 1));
          Repr.Bool true
        end)
  in
  Instrument.op t.ctx "remove_at" [ Repr.Int i ] body = Repr.Bool true

let set t i x =
  let body () =
    Sched.with_lock t.lock (fun () ->
        let c = Cell.get t.count in
        if i < 0 || i >= c then Repr.Bool false
        else begin
          Cell.set_and_commit t.elems.(i) x;
          Repr.Bool true
        end)
  in
  Instrument.op t.ctx "set" [ Repr.Int i; Repr.Int x ] body = Repr.Bool true

let clear t =
  let body () =
    Sched.with_lock t.lock (fun () ->
        Cell.set_and_commit t.count 0;
        Repr.Unit)
  in
  ignore (Instrument.op t.ctx "clear" [] body)

let get t i =
  let body () =
    Sched.with_lock t.lock (fun () ->
        let c = Cell.get t.count in
        if i >= 0 && i < c then Repr.Int (Cell.get t.elems.(i))
        else Repr.Str "out_of_bounds")
  in
  match Instrument.op t.ctx "get" [ Repr.Int i ] body with
  | Repr.Int v -> Some v
  | _ -> None

let size t =
  let body () = Sched.with_lock t.lock (fun () -> Repr.Int (Cell.get t.count)) in
  match Instrument.op t.ctx "size" [] body with Repr.Int n -> n | _ -> assert false

let is_empty t =
  let body () = Sched.with_lock t.lock (fun () -> Repr.Bool (Cell.get t.count = 0)) in
  Instrument.op t.ctx "is_empty" [] body = Repr.Bool true

let index_of t x =
  let body () =
    Sched.with_lock t.lock (fun () ->
        let c = Cell.get t.count in
        let rec go i =
          if i >= c then -1 else if Cell.get t.elems.(i) = x then i else go (i + 1)
        in
        Repr.Int (go 0))
  in
  match Instrument.op t.ctx "index_of" [ Repr.Int x ] body with
  | Repr.Int i -> i
  | _ -> assert false

let contains t x =
  let body () =
    Sched.with_lock t.lock (fun () ->
        let c = Cell.get t.count in
        let rec go i =
          if i >= c then false else Cell.get t.elems.(i) = x || go (i + 1)
        in
        Repr.Bool (go 0))
  in
  Instrument.op t.ctx "contains" [ Repr.Int x ] body = Repr.Bool true

(* The scan from [from] downwards, under the monitor. *)
let scan_down t x from =
  let rec go i = if i < 0 then -1 else if Cell.get t.elems.(i) = x then i else go (i - 1) in
  go from

exception Index_out_of_bounds

let last_index_of t x =
  let buggy = List.mem Non_atomic_last_index_of t.bugs in
  let body () =
    if buggy then begin
      (* JDK bug: lastIndexOf(Object) reads elementCount outside the
         monitor, then calls the synchronized lastIndexOf(Object, index)
         whose bounds check throws if the vector shrank in between.  The
         exceptional return is never admitted by the specification, which is
         how refinement checking catches this observer-only bug. *)
      let c = Sched.with_lock t.lock (fun () -> Cell.get t.count) in
      t.ctx.Instrument.sched.Sched.yield ();
      Sched.with_lock t.lock (fun () ->
          let cur = Cell.get t.count in
          if c > cur then Repr.Str "index_out_of_bounds"
          else Repr.Int (scan_down t x (c - 1)))
    end
    else
      Sched.with_lock t.lock (fun () ->
          let c = Cell.get t.count in
          Repr.Int (scan_down t x (c - 1)))
  in
  match Instrument.op t.ctx "last_index_of" [ Repr.Int x ] body with
  | Repr.Int i -> i
  | _ -> raise Index_out_of_bounds

let viewdef ~capacity : View.t =
  (* precomputed var names: the closure runs at every commit, and a sprintf
     per element per commit dominates the checker's view path *)
  let elem_vars = Array.init capacity elem_var in
  View.Full
    (fun lookup ->
      let c = match lookup count_var with Some (Repr.Int c) -> c | _ -> 0 in
      let elt i =
        match lookup elem_vars.(i) with Some (Repr.Int x) -> Repr.int x | _ -> Repr.int 0
      in
      Repr.List (List.init (min c capacity) elt))

let unsafe_contents t =
  List.init (Cell.peek t.count) (fun i -> Cell.peek t.elems.(i))

(* Specification: the sequence of elements, as an immutable array — a
   transition copies it once, and observers read it in place. *)

module S = struct
  type state = int array

  let name = "vector"
  let init () = [||]

  let kind = function
    | "add" | "remove_last" | "insert_at" | "remove_at" | "set" | "clear" ->
      Spec.Mutator
    | "get" | "size" | "is_empty" | "contains" | "index_of" | "last_index_of" ->
      Spec.Observer
    | m -> invalid_arg ("vector spec: unknown method " ^ m)

  type meth = string
  let meth = Spec.by_name kind

  let bad fmt = Printf.ksprintf (fun m -> Error m) fmt

  (* [st] with [x] inserted before index [i] *)
  let insert st i x =
    let len = Array.length st in
    let st' = Array.make (len + 1) x in
    Array.blit st 0 st' 0 i;
    Array.blit st i st' (i + 1) (len - i);
    st'

  let remove st i =
    let len = Array.length st in
    let st' = Array.sub st 0 (len - 1) in
    Array.blit st (i + 1) st' i (len - i - 1);
    st'

  let in_bounds st i = i >= 0 && i < Array.length st

  let apply st ~mid ~args ~ret =
    match (mid, args, ret) with
    | "add", [ Repr.Int x ], ret when Repr.is_success ret ->
      Ok (insert st (Array.length st) x)
    | "add", [ Repr.Int _ ], ret when Repr.equal ret Repr.failure -> Ok st
    | "remove_last", [], Repr.Bool true ->
      if Array.length st > 0 then Ok (remove st (Array.length st - 1))
      else bad "remove_last returned true on an empty vector"
    | "remove_last", [], Repr.Bool false ->
      if Array.length st = 0 then Ok st
      else bad "remove_last returned false on a non-empty vector"
    | "insert_at", [ Repr.Int i; Repr.Int x ], ret when Repr.is_success ret ->
      if i < 0 || i > Array.length st then bad "insert_at(%d) succeeded out of bounds" i
      else Ok (insert st i x)
    | "insert_at", _, ret when Repr.equal ret Repr.failure -> Ok st
    | "remove_at", [ Repr.Int i ], Repr.Bool true ->
      if in_bounds st i then Ok (remove st i)
      else bad "remove_at(%d) returned true out of bounds" i
    | "remove_at", [ Repr.Int i ], Repr.Bool false ->
      if not (in_bounds st i) then Ok st
      else bad "remove_at(%d) returned false in bounds" i
    | "set", [ Repr.Int i; Repr.Int x ], Repr.Bool true ->
      if in_bounds st i then begin
        let st' = Array.copy st in
        st'.(i) <- x;
        Ok st'
      end
      else bad "set(%d) returned true out of bounds" i
    | "set", [ Repr.Int i; Repr.Int _ ], Repr.Bool false ->
      if not (in_bounds st i) then Ok st
      else bad "set(%d) returned false in bounds" i
    | "clear", [], Repr.Unit -> Ok [||]
    | mid, _, _ -> bad "no %s transition matches the observed arguments/return" mid

  (* the lowest (highest) index of [x] from [i] upwards (downwards), or -1 *)
  let rec first st x i =
    if i >= Array.length st then -1 else if st.(i) = x then i else first st x (i + 1)

  let rec last st x i = if i < 0 then -1 else if st.(i) = x then i else last st x (i - 1)

  let observe st ~mid ~args ~ret =
    let len = Array.length st in
    match (mid, args, ret) with
    | "size", [], Repr.Int n -> n = len
    | "get", [ Repr.Int i ], Repr.Int v -> in_bounds st i && st.(i) = v
    | "get", [ Repr.Int i ], Repr.Str "out_of_bounds" -> not (in_bounds st i)
    | "contains", [ Repr.Int x ], Repr.Bool b -> b = (first st x 0 >= 0)
    | "last_index_of", [ Repr.Int x ], Repr.Int r -> r = last st x (len - 1)
    | "is_empty", [], Repr.Bool b -> b = (len = 0)
    | "index_of", [ Repr.Int x ], Repr.Int r -> r = first st x 0
    (* non-committing mutator executions *)
    | "add", _, ret -> Repr.equal ret Repr.failure
    | "remove_last", [], Repr.Bool false -> len = 0
    (* insert_at may also fail on a full vector, which the specification
       cannot observe, so any failure is admissible *)
    | "insert_at", _, ret -> Repr.equal ret Repr.failure
    | "remove_at", [ Repr.Int i ], Repr.Bool false -> not (in_bounds st i)
    | "set", [ Repr.Int i; _ ], Repr.Bool false -> not (in_bounds st i)
    | _ -> false

  let view st = Repr.List (Array.fold_right (fun x acc -> Repr.int x :: acc) st [])
  let snapshot st = st
  let save st = Some (view st)

  let load = function
    | Repr.List xs ->
      Array.of_list
        (List.map
           (function
             | Repr.Int x -> x
             | v -> invalid_arg ("vector spec: bad saved element " ^ Repr.to_string v))
           xs)
    | v -> invalid_arg ("vector spec: bad saved state " ^ Repr.to_string v)
end

let spec : Spec.t = (module S)
