type kind = Mutator | Observer | Internal

module type S = sig
  type state
  type meth

  val name : string
  val init : unit -> state
  val meth : string -> meth
  val kind : meth -> kind
  val apply : state -> mid:meth -> args:Repr.t list -> ret:Repr.t -> (state, string) result
  val observe : state -> mid:meth -> args:Repr.t list -> ret:Repr.t -> bool
  val view : state -> Repr.t
  val snapshot : state -> state
  val save : state -> Repr.t option
  val load : Repr.t -> state
end

type t = (module S)

let by_name kind mid =
  ignore (kind mid : kind);
  mid
