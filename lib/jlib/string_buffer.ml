open Vyrd
module Sched = Vyrd_sched.Sched
module Cell = Instrument.Cell

type bug = Unprotected_append_source

type buffer = {
  id : int;
  len : int Cell.t;
  chars : char Cell.t array;
  lock : Sched.mutex;
}

type pool = { ctx : Instrument.ctx; bufs : buffer array; bugs : bug list }

type outcome = Success | Failure

let len_var b = Printf.sprintf "b%d.len" b
let char_var b j = Printf.sprintf "b%d.char[%d]" b j

let create ?(bugs = []) ~buffers ~buf_capacity ctx =
  let buffer id =
    {
      id;
      len = Cell.make ctx ~name:(len_var id) ~repr:(fun l -> Repr.Int l) 0;
      chars =
        Array.init buf_capacity (fun j ->
            Cell.make ctx ~name:(char_var id j)
              ~repr:(fun c -> Repr.Str (String.make 1 c))
              '\000');
      lock = Instrument.mutex ctx ~name:(Printf.sprintf "b%d" id);
    }
  in
  { ctx; bufs = Array.init buffers buffer; bugs }

let buf p b =
  if b < 0 || b >= Array.length p.bufs then
    invalid_arg (Printf.sprintf "string_buffer: no buffer %d" b);
  p.bufs.(b)


(* Store [data] at the end of [dst], whose monitor the caller holds; the
   length update is the commit action. *)
let blit_and_commit dst data =
  let l = Cell.get dst.len in
  let n = String.length data in
  if l + n > Array.length dst.chars then Repr.failure
  else begin
    String.iteri (fun k c -> Cell.set dst.chars.(l + k) c) data;
    Cell.set_and_commit dst.len (l + n);
    Repr.success
  end

let append_str p b s =
  let dst = buf p b in
  let body () = Sched.with_lock dst.lock (fun () -> blit_and_commit dst s) in
  let ret = Instrument.op p.ctx "append_str" [ Repr.Int b; Repr.Str s ] body in
  if Repr.is_success ret then Success else Failure

(* Read [n] characters of [src] under its monitor — stale slots beyond the
   current length are returned as-is, as in the JDK. *)
let read_chars src n =
  String.init n (fun j -> Cell.get src.chars.(j))

let append_sb p ~dst ~src =
  let d = buf p dst and s = buf p src in
  let buggy = List.mem Unprotected_append_source p.bugs in
  let body () =
    if buggy then begin
      (* JDK bug: length and characters are read in separate critical
         sections of the source's monitor. *)
      let n = Sched.with_lock s.lock (fun () -> Cell.get s.len) in
      p.ctx.Instrument.sched.Sched.yield ();
      let data = Sched.with_lock s.lock (fun () -> read_chars s n) in
      Sched.with_lock d.lock (fun () -> blit_and_commit d data)
    end
    else begin
      (* Lock both monitors, lowest id first (deadlock-free; reentrant when
         dst = src). *)
      let first, second = if d.id <= s.id then (d, s) else (s, d) in
      Sched.with_lock first.lock (fun () ->
          Sched.with_lock second.lock (fun () ->
              let data = read_chars s (Cell.get s.len) in
              blit_and_commit d data))
    end
  in
  let ret = Instrument.op p.ctx "append_sb" [ Repr.Int dst; Repr.Int src ] body in
  if Repr.is_success ret then Success else Failure

let truncate p b n =
  let d = buf p b in
  let body () =
    Sched.with_lock d.lock (fun () ->
        let l = Cell.get d.len in
        if n >= 0 && n <= l then begin
          Cell.set_and_commit d.len n;
          Repr.Bool true
        end
        else Repr.Bool false)
  in
  Instrument.op p.ctx "truncate" [ Repr.Int b; Repr.Int n ] body = Repr.Bool true

let set_char p b i c =
  let d = buf p b in
  let body () =
    Sched.with_lock d.lock (fun () ->
        let l = Cell.get d.len in
        if i < 0 || i >= l then Repr.Bool false
        else begin
          Cell.set_and_commit d.chars.(i) c;
          Repr.Bool true
        end)
  in
  Instrument.op p.ctx "set_char"
    [ Repr.Int b; Repr.Int i; Repr.Str (String.make 1 c) ]
    body
  = Repr.Bool true

(* Shifts several visible characters, so the whole update sits in a commit
   block whose commit action is the length write. *)
let delete_range p b ~pos ~len =
  let d = buf p b in
  let body () =
    Sched.with_lock d.lock (fun () ->
        let l = Cell.get d.len in
        if pos < 0 || len < 0 || pos + len > l then Repr.Bool false
        else begin
          Instrument.with_block p.ctx (fun () ->
              for j = pos to l - len - 1 do
                Cell.set d.chars.(j) (Cell.get d.chars.(j + len))
              done;
              Cell.set_and_commit d.len (l - len));
          Repr.Bool true
        end)
  in
  Instrument.op p.ctx "delete_range" [ Repr.Int b; Repr.Int pos; Repr.Int len ] body
  = Repr.Bool true

let reverse p b =
  let d = buf p b in
  let body () =
    Sched.with_lock d.lock (fun () ->
        let l = Cell.get d.len in
        Instrument.with_block p.ctx (fun () ->
            for j = 0 to (l / 2) - 1 do
              let a = Cell.get d.chars.(j) and z = Cell.get d.chars.(l - 1 - j) in
              Cell.set d.chars.(j) z;
              Cell.set d.chars.(l - 1 - j) a
            done;
            Instrument.commit p.ctx);
        Repr.Unit)
  in
  ignore (Instrument.op p.ctx "reverse" [ Repr.Int b ] body)

let char_at p b i =
  let d = buf p b in
  let body () =
    Sched.with_lock d.lock (fun () ->
        let l = Cell.get d.len in
        if i < 0 || i >= l then Repr.Str "index_out_of_bounds"
        else Repr.Str (String.make 1 (Cell.get d.chars.(i))))
  in
  match Instrument.op p.ctx "char_at" [ Repr.Int b; Repr.Int i ] body with
  | Repr.Str s when String.length s = 1 -> Some s.[0]
  | _ -> None

let to_string p b =
  let d = buf p b in
  let body () =
    Sched.with_lock d.lock (fun () -> Repr.Str (read_chars d (Cell.get d.len)))
  in
  match Instrument.op p.ctx "to_string" [ Repr.Int b ] body with
  | Repr.Str s -> s
  | _ -> assert false

let length p b =
  let d = buf p b in
  let body () = Sched.with_lock d.lock (fun () -> Repr.Int (Cell.get d.len)) in
  match Instrument.op p.ctx "length" [ Repr.Int b ] body with
  | Repr.Int n -> n
  | _ -> assert false

let unsafe_contents p b =
  let d = buf p b in
  String.init (Cell.peek d.len) (fun j -> Cell.peek d.chars.(j))

let viewdef ~buffers ~buf_capacity : View.t =
  (* precomputed var names: a projection runs at every commit that touched
     its buffer, and a sprintf per character per commit dominates the
     checker's view path *)
  let len_vars = Array.init buffers len_var in
  let char_vars =
    Array.init buffers (fun b -> Array.init buf_capacity (char_var b))
  in
  let contents lookup b =
    let l =
      match lookup len_vars.(b) with Some (Repr.Int l) -> min l buf_capacity | _ -> 0
    in
    let ch j =
      match lookup char_vars.(b).(j) with
      | Some (Repr.Str s) when String.length s = 1 -> s.[0]
      | _ -> '\000'
    in
    Repr.Str (String.init l ch)
  in
  (* one key per buffer: a commit recomputes only the buffers it wrote *)
  View.Keyed
    { keys = List.init buffers Repr.int;
      project =
        (fun lookup -> function
          | Repr.Int b -> Some (contents lookup b)
          | _ -> None) }

(* Specification: a map from buffer id to contents. ---------------------- *)

module IntMap = Map.Make (Int)

let spec ~buffers : Spec.t =
  let module S = struct
    type state = string IntMap.t

    let name = "string_buffer"

    let init () =
      List.fold_left (fun m b -> IntMap.add b "" m) IntMap.empty
        (List.init buffers Fun.id)

    let kind = function
      | "append_str" | "append_sb" | "truncate" | "set_char" | "delete_range"
      | "reverse" -> Spec.Mutator
      | "to_string" | "length" | "char_at" -> Spec.Observer
      | m -> invalid_arg ("string_buffer spec: unknown method " ^ m)

    type meth = string
    let meth = Spec.by_name kind

    let bad fmt = Printf.ksprintf (fun m -> Error m) fmt
    let contents st b = match IntMap.find_opt b st with Some s -> s | None -> ""

    let apply st ~mid ~args ~ret =
      match (mid, args, ret) with
      | "append_str", [ Repr.Int b; Repr.Str s ], ret when Repr.is_success ret ->
        Ok (IntMap.add b (contents st b ^ s) st)
      | "append_str", _, ret when Repr.equal ret Repr.failure -> Ok st
      | "append_sb", [ Repr.Int d; Repr.Int s ], ret when Repr.is_success ret ->
        (* the committed transition appends the source's *current* abstract
           contents — stale bytes in the implementation show up as a view
           (or later to_string) mismatch *)
        Ok (IntMap.add d (contents st d ^ contents st s) st)
      | "append_sb", _, ret when Repr.equal ret Repr.failure -> Ok st
      | "truncate", [ Repr.Int b; Repr.Int n ], Repr.Bool true ->
        let c = contents st b in
        if n >= 0 && n <= String.length c then Ok (IntMap.add b (String.sub c 0 n) st)
        else bad "truncate(%d, %d) returned true but the buffer is shorter" b n
      | "truncate", [ Repr.Int b; Repr.Int n ], Repr.Bool false ->
        if n < 0 || n > String.length (contents st b) then Ok st
        else bad "truncate(%d, %d) returned false but was applicable" b n
      | "set_char", [ Repr.Int b; Repr.Int i; Repr.Str ch ], Repr.Bool true ->
        let c = contents st b in
        if i >= 0 && i < String.length c && String.length ch = 1 then
          Ok (IntMap.add b (String.mapi (fun j x -> if j = i then ch.[0] else x) c) st)
        else bad "set_char(%d, %d) returned true out of bounds" b i
      | "set_char", [ Repr.Int b; Repr.Int i; Repr.Str _ ], Repr.Bool false ->
        if i < 0 || i >= String.length (contents st b) then Ok st
        else bad "set_char(%d, %d) returned false in bounds" b i
      | "delete_range", [ Repr.Int b; Repr.Int pos; Repr.Int len ], Repr.Bool true ->
        let c = contents st b in
        if pos >= 0 && len >= 0 && pos + len <= String.length c then
          Ok
            (IntMap.add b
               (String.sub c 0 pos
               ^ String.sub c (pos + len) (String.length c - pos - len))
               st)
        else bad "delete_range(%d, %d, %d) returned true out of range" b pos len
      | "delete_range", [ Repr.Int b; Repr.Int pos; Repr.Int len ], Repr.Bool false ->
        if pos < 0 || len < 0 || pos + len > String.length (contents st b) then Ok st
        else bad "delete_range(%d, %d, %d) returned false in range" b pos len
      | "reverse", [ Repr.Int b ], Repr.Unit ->
        let c = contents st b in
        let n = String.length c in
        Ok (IntMap.add b (String.init n (fun j -> c.[n - 1 - j])) st)
      | mid, _, _ -> bad "no %s transition matches the observed arguments/return" mid

    let observe st ~mid ~args ~ret =
      match (mid, args, ret) with
      | "to_string", [ Repr.Int b ], Repr.Str s -> s = contents st b
      | "length", [ Repr.Int b ], Repr.Int n -> n = String.length (contents st b)
      (* non-committing mutator executions *)
      | ("append_str" | "append_sb"), _, ret -> Repr.equal ret Repr.failure
      | "truncate", [ Repr.Int b; Repr.Int n ], Repr.Bool false ->
        n < 0 || n > String.length (contents st b)
      | "char_at", [ Repr.Int b; Repr.Int i ], Repr.Str s ->
        let c = contents st b in
        if String.length s = 1 then i >= 0 && i < String.length c && c.[i] = s.[0]
        else s = "index_out_of_bounds" && (i < 0 || i >= String.length c)
      | "set_char", [ Repr.Int b; Repr.Int i; _ ], Repr.Bool false ->
        i < 0 || i >= String.length (contents st b)
      | "delete_range", [ Repr.Int b; Repr.Int pos; Repr.Int len ], Repr.Bool false ->
        pos < 0 || len < 0 || pos + len > String.length (contents st b)
      | _ -> false

    (* [IntMap.fold] visits the buffers in ascending order: the canonical
       order, without a sort *)
    let view st =
      Repr.List
        (List.rev (IntMap.fold (fun b s acc -> Repr.Pair (Repr.int b, Repr.Str s) :: acc) st []))

    let snapshot st = st

    let save st =
      Some
        (Repr.List
           (IntMap.fold (fun b s acc -> Repr.Pair (Repr.Int b, Repr.Str s) :: acc) st []))

    let load = function
      | Repr.List kvs ->
        List.fold_left
          (fun st -> function
            | Repr.Pair (Repr.Int b, Repr.Str s) -> IntMap.add b s st
            | v -> invalid_arg ("string-buffer spec: bad saved entry " ^ Repr.to_string v))
          IntMap.empty kvs
      | v -> invalid_arg ("string-buffer spec: bad saved state " ^ Repr.to_string v)
  end in
  (module S)
