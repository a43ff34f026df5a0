(** Call/return interval extraction for the linearizability backend.

    The lin backend consumes the {e same} event streams the refinement
    checker does, but reads only [Call] and [Return] events — no commit
    annotations, no shared-variable writes.  A history is the per-thread
    matching of calls to returns, as an array of operations sorted by call
    position; an operation whose return never arrives (the thread was still
    inside the method at end of log) is kept as {e pending} with
    [op_ret = None].

    Positions are global log indices, so the real-time precedence order
    ("[a] returned before [b] was called") is exactly
    [a.op_ret_at < b.op_call]; pending operations have
    [op_ret_at = max_int] and therefore precede nothing. *)

type op = {
  op_tid : Vyrd_sched.Tid.t;
  op_mid : string;
  op_args : Vyrd.Repr.t list;
  op_ret : Vyrd.Repr.t option;  (** [None]: still pending at end of log *)
  op_call : int;  (** log index of the [Call] event *)
  op_ret_at : int;  (** log index of the [Return]; [max_int] when pending *)
}

type t = {
  ops : op array;  (** sorted by [op_call] *)
  events : int;  (** events fed, including ones the builder ignored *)
}

val length : t -> int

(** Operations with no matching return. *)
val pending : t -> int

(** {1 Building}

    [owns] restricts the history to one structure's methods (the same
    method-ownership test the farm uses to shard a log): events whose [mid]
    it rejects are skipped.  Default: keep everything. *)

module Builder : sig
  type b

  val create : ?owns:(string -> bool) -> unit -> b
  val feed : b -> Vyrd.Event.t -> unit

  (** Extract the history; the builder stays usable (more [feed]s extend
      it). *)
  val finish : b -> t
end

val of_events : ?owns:(string -> bool) -> Vyrd.Event.t array -> t
val of_log : ?owns:(string -> bool) -> Vyrd.Log.t -> t

(** [owner spec] is the method-ownership test of [spec]: true on the methods
    [spec] resolves ([Spec.S.meth] does not raise).  Each test resolves a
    name once and keeps the answer, so one test serves one builder and is
    not to be shared between domains. *)
val owner : Vyrd.Spec.t -> string -> bool
