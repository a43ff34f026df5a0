(* Routing: a method belongs to the left component iff [A.meth] resolves
   it; otherwise it is handed to the right component (whose [meth] raises
   for genuinely unknown names).  Resolution happens once per name, in the
   checker's method table, and the handle records the side: every later
   [kind], [apply] and [observe] is one constructor match per level. *)
type ('a, 'b) meth = L of 'a | R of 'b

(* A product state carries the views of its two components, computed on
   demand and kept while the component is unchanged: a commit on one side
   then rebuilds no other side's view.  [apply] never mutates its argument,
   so a state's views hold for its whole life; each state belongs to the
   one checker that made it. *)
type ('a, 'b) state = {
  l : 'a;
  r : 'b;
  mutable lv : Repr.t option;
  mutable rv : Repr.t option;
}

let pair (speca : Spec.t) (specb : Spec.t) : Spec.t =
  let module A = (val speca) in
  let module B = (val specb) in
  let module P = struct
    type nonrec state = (A.state, B.state) state
    type nonrec meth = (A.meth, B.meth) meth

    let name = A.name ^ " * " ^ B.name
    let make l r = { l; r; lv = None; rv = None }
    let init () = make (A.init ()) (B.init ())

    let meth mid =
      match A.meth mid with m -> L m | exception Invalid_argument _ -> R (B.meth mid)

    let kind = function L m -> A.kind m | R m -> B.kind m

    let apply s ~mid ~args ~ret =
      match mid with
      | L mid -> (
        match A.apply s.l ~mid ~args ~ret with
        | Ok l -> Ok (if l == s.l then s else { s with l; lv = None })
        | Error _ as e -> e)
      | R mid -> (
        match B.apply s.r ~mid ~args ~ret with
        | Ok r -> Ok (if r == s.r then s else { s with r; rv = None })
        | Error _ as e -> e)

    let observe s ~mid ~args ~ret =
      match mid with
      | L mid -> A.observe s.l ~mid ~args ~ret
      | R mid -> B.observe s.r ~mid ~args ~ret

    let view s =
      let lv =
        match s.lv with
        | Some v -> v
        | None ->
          let v = A.view s.l in
          s.lv <- Some v;
          v
      in
      let rv =
        match s.rv with
        | Some v -> v
        | None ->
          let v = B.view s.r in
          s.rv <- Some v;
          v
      in
      Repr.Pair (lv, rv)

    let snapshot s =
      let l = A.snapshot s.l and r = B.snapshot s.r in
      if l == s.l && r == s.r then s else { s with l; r }

    let save s =
      match (A.save s.l, B.save s.r) with
      | Some ra, Some rb -> Some (Repr.Pair (ra, rb))
      | _ -> None

    let load = function
      | Repr.Pair (ra, rb) -> make (A.load ra) (B.load rb)
      | v -> invalid_arg (name ^ ": bad saved state " ^ Repr.to_string v)
  end in
  (module P)

let pair_views va vb = View.Pair (va, vb)
