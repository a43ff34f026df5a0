(** Executable specifications (paper §3).

    A specification is a method-atomic, deterministic state transition
    system: given a state, a method, its arguments and its observed return
    value, there is at most one successor state.  Return-value
    nondeterminism is allowed (e.g. [Insert] may succeed or terminate
    exceptionally) — determinism is required only {e given} the return
    value, which the checker supplies by looking ahead in the log. *)

type kind =
  | Mutator  (** may modify abstract state; carries a commit annotation *)
  | Observer
      (** never modifies abstract state; not annotated — checked against
          every specification state in its call–return window (§4.3) *)
  | Internal
      (** housekeeping work of a data-structure worker thread (e.g. a
          compression step): treated like a mutator whose transition must
          leave the abstract view unchanged (§7.2.3) *)

module type S = sig
  type state

  (** A resolved public method: what [kind], [apply] and [observe] take.
      A checker resolves each method name once and keeps the handle, so
      no per-event work depends on how long or how many the names are. *)
  type meth

  val name : string
  val init : unit -> state

  (** [meth mid] resolves public method [mid].
      @raise Invalid_argument for unknown methods, at every call. *)
  val meth : string -> meth

  (** [kind m] classifies a resolved method. *)
  val kind : meth -> kind

  (** [apply state ~mid ~args ~ret] takes the unique transition of mutator
      (or internal) method [mid] that returns [ret], or explains why no such
      transition exists.  It never mutates [state]: the checker keeps
      earlier states for observer windows, and a {!Spec_compose} product
      keeps the component views it computed for them. *)
  val apply : state -> mid:meth -> args:Repr.t list -> ret:Repr.t -> (state, string) result

  (** [observe state ~mid ~args ~ret] tells whether observer [mid] may
      return [ret] in [state]. *)
  val observe : state -> mid:meth -> args:Repr.t list -> ret:Repr.t -> bool

  (** [view state] is the canonical abstract contents [viewS] (§5). *)
  val view : state -> Repr.t

  (** [snapshot state] returns a state unaffected by later [apply] calls.
      The identity for persistent states; a deep copy for specs built from
      atomized imperative code (§4.4). *)
  val snapshot : state -> state

  (** [save state] serializes the state for a checkpoint, or [None] when
      this specification does not support checkpointing (then the whole
      checker snapshot degrades to [None] and resume falls back to full
      replay).  Must satisfy [load (save s) ≡ s] up to [view]/[apply]/
      [observe] equivalence. *)
  val save : state -> Repr.t option

  (** [load repr] rebuilds a state serialized by [save].
      @raise Invalid_argument when [repr] is not a value [save] produces —
      resume treats that checkpoint as unusable and falls back. *)
  val load : Repr.t -> state
end

type t = (module S)

(** [by_name kind] is the [meth] of a leaf specification whose handle is
    the method name itself: [by_name kind mid] checks [mid] once with
    [kind] (which raises [Invalid_argument] for unknown names) and returns
    it.  A leaf then keeps dispatching on names:
    {[ type meth = string
       let meth = Spec.by_name kind ]} *)
val by_name : (string -> kind) -> string -> string
