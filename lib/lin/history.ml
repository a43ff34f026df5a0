open Vyrd
module Tid = Vyrd_sched.Tid

type op = {
  op_tid : Tid.t;
  op_mid : string;
  op_args : Repr.t list;
  op_ret : Repr.t option;
  op_call : int;
  op_ret_at : int;
}

type t = { ops : op array; events : int }

let length t = Array.length t.ops
let pending t =
  Array.fold_left (fun n o -> if o.op_ret = None then n + 1 else n) 0 t.ops

module Builder = struct
  (* an open call, mutated in place when its return arrives *)
  type slot = {
    s_tid : Tid.t;
    s_mid : string;
    s_args : Repr.t list;
    s_call : int;
    mutable s_ret : Repr.t option;
    mutable s_ret_at : int;
  }

  type b = {
    owns : string -> bool;
    open_calls : slot Tid.Tbl.t;
    mutable slots : slot list;  (* reverse call order *)
    mutable pos : int;
  }

  let create ?(owns = fun _ -> true) () =
    { owns; open_calls = Tid.Tbl.create 16; slots = []; pos = 0 }

  let feed b ev =
    (match ev with
    | Event.Call { tid; mid; args } when b.owns mid ->
      let s =
        { s_tid = tid; s_mid = mid; s_args = args; s_call = b.pos; s_ret = None;
          s_ret_at = max_int }
      in
      Tid.Tbl.replace b.open_calls tid s;
      b.slots <- s :: b.slots
    | Event.Return { tid; mid; value } when b.owns mid -> (
      match Tid.Tbl.find_opt b.open_calls tid with
      | Some s when String.equal s.s_mid mid ->
        Tid.Tbl.remove b.open_calls tid;
        s.s_ret <- Some value;
        s.s_ret_at <- b.pos
      | Some _ | None -> ())
    | _ -> ());
    b.pos <- b.pos + 1

  let finish b =
    let ops =
      List.rev_map
        (fun s ->
          { op_tid = s.s_tid; op_mid = s.s_mid; op_args = s.s_args;
            op_ret = s.s_ret; op_call = s.s_call; op_ret_at = s.s_ret_at })
        b.slots
      |> Array.of_list
    in
    { ops; events = b.pos }
end

let of_events ?owns evs =
  let b = Builder.create ?owns () in
  Array.iter (Builder.feed b) evs;
  Builder.finish b

let of_log ?owns log =
  let b = Builder.create ?owns () in
  Log.iter (Builder.feed b) log;
  Builder.finish b

module Names = Hashtbl.Make (String)

(* Each name is resolved once per test, and the answer kept either way: a
   product spec resolves a name through a raise at every level it skips. *)
let owner spec =
  let module Sp = (val spec : Spec.S) in
  let answers = Names.create 16 in
  fun mid ->
    match Names.find answers mid with
    | owned -> owned
    | exception Not_found ->
      let owned =
        match Sp.meth mid with (_ : Sp.meth) -> true | exception Invalid_argument _ -> false
      in
      Names.add answers mid owned;
      owned
