(* Routing: a method belongs to the left component iff [A.kind] accepts it;
   otherwise it is handed to the right component (whose [kind] raises for
   genuinely unknown names).  Each known method's side is probed once and
   kept in a table that is copied on write and published through an
   [Atomic], so checkers on several domains can share one product spec;
   unknown names are not kept and raise at every call. *)

module Routes = Hashtbl.Make (String)

let knows kind mid = match kind mid with _ -> true | exception Invalid_argument _ -> false

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

    let name = A.name ^ " * " ^ B.name
    let make l r = { l; r; lv = None; rv = None }
    let init () = make (A.init ()) (B.init ())
    let routes : bool Routes.t Atomic.t = Atomic.make (Routes.create 16)

    let rec left mid =
      let table = Atomic.get routes in
      match Routes.find table mid with
      | side -> side
      | exception Not_found ->
        let side = knows A.kind mid in
        if (not side) && not (knows B.kind mid) then false
        else begin
          let table' = Routes.copy table in
          Routes.replace table' mid side;
          if Atomic.compare_and_set routes table table' then side else left mid
        end

    let kind mid = if left mid then A.kind mid else B.kind mid

    let apply s ~mid ~args ~ret =
      if left mid then
        Result.map
          (fun l -> if l == s.l then s else { s with l; lv = None })
          (A.apply s.l ~mid ~args ~ret)
      else
        Result.map
          (fun r -> if r == s.r then s else { s with r; rv = None })
          (B.apply s.r ~mid ~args ~ret)

    let observe s ~mid ~args ~ret =
      if left mid then A.observe s.l ~mid ~args ~ret else B.observe s.r ~mid ~args ~ret

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
