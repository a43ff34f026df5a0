open Vyrd

let default_max_ops = 14

exception Found
exception Out_of_budget

let check ?(budget = 1_000_000) ?(pending_rets = Jit.default_pending_rets)
    ?(max_ops = default_max_ops) (h : History.t) spec =
  let module Sp = (val spec : Spec.S) in
  let ops = h.History.ops in
  let n = Array.length ops in
  if n > max_ops then
    invalid_arg
      (Printf.sprintf "Enum.check: %d operations exceed the exhaustive bound %d"
         n max_ops);
  let meths = Array.map (fun (o : History.op) -> Sp.meth o.History.op_mid) ops in
  let kinds = Array.map Sp.kind meths in
  let used = Array.make n false in
  let completed_left =
    ref (Array.fold_left (fun k (o : History.op) -> if o.op_ret = None then k else k + 1) 0 ops)
  in
  let nodes = ref 0 in
  (* [i] may come next iff every unused completed operation that returned
     before [i]'s call is already placed (pending ops return at [max_int],
     so they block nothing) *)
  let minimal i =
    let e = ops.(i) in
    let ok = ref true in
    for j = 0 to n - 1 do
      if !ok && (not used.(j)) && j <> i && ops.(j).History.op_ret_at < e.History.op_call
      then ok := false
    done;
    !ok
  in
  let step state i ret k =
    incr nodes;
    if !nodes > budget then raise Out_of_budget;
    let o = ops.(i) in
    let mid = meths.(i) and args = o.History.op_args in
    match kinds.(i) with
    | Spec.Observer -> if Sp.observe state ~mid ~args ~ret then k state
    | Spec.Mutator | Spec.Internal -> (
      match Sp.apply state ~mid ~args ~ret with
      | Ok s' -> k (Sp.snapshot s')
      | Error _ ->
        if o.History.op_ret <> None && Sp.observe state ~mid ~args ~ret then
          k state)
  in
  let rec dfs state =
    if !completed_left = 0 then raise Found;
    for i = 0 to n - 1 do
      if (not used.(i)) && minimal i then begin
        let place ret =
          used.(i) <- true;
          let completed = ops.(i).History.op_ret <> None in
          if completed then decr completed_left;
          step state i ret dfs;
          if completed then incr completed_left;
          used.(i) <- false
        in
        match ops.(i).History.op_ret with
        | Some r -> place r
        | None -> (
          match kinds.(i) with
          | Spec.Observer -> ()  (* pending observers are dropped *)
          | Spec.Mutator | Spec.Internal -> List.iter place pending_rets)
      end
    done
  in
  match dfs (Sp.snapshot (Sp.init ())) with
  | () -> (Jit.Not_linearizable, !nodes)
  | exception Found -> (Jit.Linearizable, !nodes)
  | exception Out_of_budget -> (Jit.Budget_exhausted, !nodes)
