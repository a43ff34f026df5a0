type 'impl ops = {
  az_name : string;
  az_create : unit -> 'impl;
  az_copy : 'impl -> 'impl;
  az_kind : string -> Spec.kind;
  az_apply : 'impl -> mid:string -> args:Repr.t list -> ret:Repr.t -> (unit, string) result;
  az_observe : 'impl -> mid:string -> args:Repr.t list -> ret:Repr.t -> bool;
  az_view : 'impl -> Repr.t;
}

let spec (type i) (ops : i ops) : Spec.t =
  let module M = struct
    type state = i

    let name = ops.az_name
    let init () = ops.az_create ()
    let kind = ops.az_kind

    type meth = string
    let meth = Spec.by_name kind

    (* [apply] must not destroy the argument state: the checker keeps a
       history of states for observer windows, so we mutate a copy. *)
    let apply state ~mid ~args ~ret =
      let next = ops.az_copy state in
      match ops.az_apply next ~mid ~args ~ret with
      | Ok () -> Ok next
      | Error _ as e -> e

    let observe state ~mid ~args ~ret = ops.az_observe state ~mid ~args ~ret
    let view state = ops.az_view state
    let snapshot state = ops.az_copy state

    (* An atomized imperative structure has no serializer for its internal
       representation; checkpointing degrades to full replay. *)
    let save _ = None
    let load _ = invalid_arg (ops.az_name ^ ": atomized specs do not checkpoint")
  end in
  (module M : Spec.S)
