open Vyrd

type stats = { nodes : int; undos : int; memo_hits : int; memo_entries : int }
type outcome = Linearizable | Not_linearizable | Budget_exhausted
type result = { outcome : outcome; stats : stats }

let pp_outcome ppf = function
  | Linearizable -> Format.pp_print_string ppf "linearizable"
  | Not_linearizable -> Format.pp_print_string ppf "not-linearizable"
  | Budget_exhausted -> Format.pp_print_string ppf "budget-exhausted"

let default_pending_rets = [ Repr.unit; Repr.success; Repr.failure ]

exception Stop of outcome

module Make (Sp : Spec.S) = struct
  (* one blocked configuration of the search.  [f_edge] is the single
     linearization that created it (undone when the frame fails); [f_calls]
     are the operations whose calls passed while advancing into it. *)
  type frame = {
    f_state : Sp.state;
    f_pos : int;  (* sched index of the blocking return *)
    f_block : int;  (* operation whose return blocks *)
    mutable f_cands : (int * Repr.t) list;
    f_edge : int;  (* -1 at the root *)
    f_calls : int list;
  }

  let check ~budget ~pending_rets (h : History.t) =
    let ops = h.History.ops in
    let n = Array.length ops in
    let meths = Array.map (fun (o : History.op) -> Sp.meth o.History.op_mid) ops in
    let kinds = Array.map Sp.kind meths in
    (* the interleaved call/return schedule in log order: [2i] is the call
       of operation [i], [2i+1] its return *)
    let sched =
      let xs = ref [] in
      Array.iteri
        (fun i (o : History.op) ->
          xs := (o.History.op_call, 2 * i) :: !xs;
          if o.History.op_ret <> None then
            xs := (o.History.op_ret_at, (2 * i) + 1) :: !xs)
        ops;
      let a = Array.of_list !xs in
      Array.sort (fun (p, _) (q, _) -> compare p q) a;
      Array.map snd a
    in
    let m = Array.length sched in
    (* doubly linked list (dancing links) of called-but-unlinearized
       operations; undo is LIFO so [dll_restore] re-links exactly *)
    let nxt = Array.make (n + 1) n and prv = Array.make (n + 1) n in
    let dll_append i =
      let tail = prv.(n) in
      nxt.(tail) <- i;
      prv.(i) <- tail;
      nxt.(i) <- n;
      prv.(n) <- i
    in
    let dll_remove i =
      nxt.(prv.(i)) <- nxt.(i);
      prv.(nxt.(i)) <- prv.(i)
    in
    let dll_restore i =
      nxt.(prv.(i)) <- i;
      prv.(nxt.(i)) <- i
    in
    let linearized = Array.make n false in
    let nodes = ref 0 and undos = ref 0 and memo_hits = ref 0 in
    let dead : (string * Repr.t, unit) Hashtbl.t = Hashtbl.create 64 in
    let memo_ok = ref true and backtracked = ref false in
    (* (linearized set, saved state): block position and candidate set are
       functions of the set, and [save] is faithful, so the key determines
       the whole subtree *)
    let key state =
      if not !memo_ok then None
      else
        match Sp.save state with
        | None ->
          memo_ok := false;
          None
        | Some r ->
          let b = Bytes.make ((n + 7) / 8) '\000' in
          for i = 0 to n - 1 do
            if linearized.(i) then
              Bytes.set b (i lsr 3)
                (Char.unsafe_chr
                   (Char.code (Bytes.get b (i lsr 3)) lor (1 lsl (i land 7))))
          done;
          Some (Bytes.unsafe_to_string b, r)
    in
    (* pass calls (entering the DLL) and returns of linearized operations;
       stop at the first return of an unlinearized one, or end of log *)
    let advance pos =
      let calls = ref [] in
      let pos = ref pos and blocked = ref (-1) in
      (try
         while !pos < m do
           let hp = sched.(!pos) in
           let i = hp lsr 1 in
           if hp land 1 = 0 then begin
             dll_append i;
             calls := i :: !calls;
             incr pos
           end
           else if linearized.(i) then incr pos
           else begin
             blocked := i;
             raise Exit
           end
         done
       with Exit -> ());
      (!pos, !blocked, !calls)
    in
    let candidates block =
      (* the blocking operation first: linearize as late as possible *)
      let rest = ref [] in
      let i = ref prv.(n) in
      (* walk backwards so consing preserves DLL order *)
      while !i <> n do
        (if !i <> block then
           match ops.(!i).History.op_ret with
           | Some r -> rest := (!i, r) :: !rest
           | None -> (
             match kinds.(!i) with
             | Spec.Observer -> ()  (* dropping a pending observer is complete *)
             | Spec.Mutator | Spec.Internal ->
               rest :=
                 List.fold_left
                   (fun acc g -> (!i, g) :: acc)
                   !rest (List.rev pending_rets)));
        i := prv.(!i)
      done;
      match ops.(block).History.op_ret with
      | Some r -> (block, r) :: !rest
      | None -> assert false (* blocked at a return event *)
    in
    let step state i ret =
      incr nodes;
      if !nodes > budget then raise (Stop Budget_exhausted);
      let o = ops.(i) in
      let mid = meths.(i) and args = o.History.op_args in
      match kinds.(i) with
      | Spec.Observer -> if Sp.observe state ~mid ~args ~ret then Some state else None
      | Spec.Mutator | Spec.Internal -> (
        match Sp.apply state ~mid ~args ~ret with
        | Ok s' -> Some (Sp.snapshot s')
        | Error _ ->
          (* a completed execution that performed no transition may be a
             pure observation (exceptional termination, as in the
             refinement checker); for a pending guess, not linearizing at
             all already covers the no-transition case *)
          if o.History.op_ret <> None && Sp.observe state ~mid ~args ~ret then
            Some state
          else None)
    in
    let outcome =
      try
        let pos0, block0, _ = advance 0 in
        if block0 < 0 then Linearizable
        else begin
          let stack =
            ref
              [ { f_state = Sp.snapshot (Sp.init ()); f_pos = pos0;
                  f_block = block0; f_cands = candidates block0; f_edge = -1;
                  f_calls = [] } ]
          in
          let rec loop () =
            match !stack with
            | [] -> Not_linearizable
            | fr :: tail -> (
              match fr.f_cands with
              | [] ->
                (* exhausted: this configuration is dead — record it, undo
                   the linearization that created it, pop *)
                backtracked := true;
                (match key fr.f_state with
                | Some k -> Hashtbl.replace dead k ()
                | None -> ());
                List.iter dll_remove fr.f_calls;
                if fr.f_edge >= 0 then begin
                  linearized.(fr.f_edge) <- false;
                  dll_restore fr.f_edge;
                  incr undos
                end;
                stack := tail;
                loop ()
              | (c, ret) :: cands ->
                fr.f_cands <- cands;
                (match step fr.f_state c ret with
                | None -> ()
                | Some s' ->
                  linearized.(c) <- true;
                  dll_remove c;
                  let dead_hit =
                    !backtracked
                    &&
                    match key s' with
                    | Some k when Hashtbl.mem dead k -> true
                    | Some _ | None -> false
                  in
                  if dead_hit then begin
                    incr memo_hits;
                    linearized.(c) <- false;
                    dll_restore c
                  end
                  else if c = fr.f_block then begin
                    let pos', block', calls = advance (fr.f_pos + 1) in
                    if block' < 0 then raise (Stop Linearizable)
                    else
                      stack :=
                        { f_state = s'; f_pos = pos'; f_block = block';
                          f_cands = candidates block'; f_edge = c;
                          f_calls = calls }
                        :: !stack
                  end
                  else
                    stack :=
                      { f_state = s'; f_pos = fr.f_pos; f_block = fr.f_block;
                        f_cands = candidates fr.f_block; f_edge = c;
                        f_calls = [] }
                      :: !stack);
                loop ())
          in
          loop ()
        end
      with Stop o -> o
    in
    { outcome;
      stats =
        { nodes = !nodes; undos = !undos; memo_hits = !memo_hits;
          memo_entries = Hashtbl.length dead } }
end

let check ?(budget = 1_000_000) ?(pending_rets = default_pending_rets) h spec =
  let module M = Make ((val spec : Spec.S)) in
  M.check ~budget ~pending_rets h
