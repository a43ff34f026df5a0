(** One run description for every driver: the random test program of
    paper §7.1 ({!Harness}) over one or more {!Subjects}, with the bug and
    the engine to run it on.  The CLI, the benchmarks, the soak driver and
    the tests describe a run once, as a [t], and take from it the log, the
    product specification, the farm shards and the offline reference
    verdict. *)

type engine = [ `Coop | `Native ]

type t = {
  subjects : Subjects.t list;
      (** more than one is a multi-structure run: every thread picks a
          subject per call, and method namespaces must be disjoint (the
          {!Vyrd.Spec_compose} precondition) *)
  config : Harness.config;
  bug : bool;  (** build every subject with its injected bug *)
  engine : engine;
      (** [`Coop] is the deterministic engine: the same [t] gives the same
          log; [`Native] runs system threads *)
}

(** The three disjoint-namespace subjects the pipeline, the service and
    the benchmarks check together: Multiset-Vector, java.util.Vector and
    java.util.StringBuffer. *)
val composite : Subjects.t list

(** [v subjects] with [config] (default {!Harness.default}), [bug]
    (default [false]) and [engine] (default [`Coop]). *)
val v : ?config:Harness.config -> ?bug:bool -> ?engine:engine -> Subjects.t list -> t

(** [run_into ~log t] runs [t] appending into [log], so listeners (a farm,
    a segment writer) can be attached before any event flows.  The random
    streams are those of {!Harness.run_into}.
    @raise Invalid_argument on an empty subject list. *)
val run_into : log:Vyrd.Log.t -> t -> unit

(** [log t] runs [t] into a fresh log at [t.config.log_level]. *)
val log : t -> Vyrd.Log.t

(** The subjects' specifications and views folded into one
    {!Vyrd.Spec_compose} product, left to right: [((s1 * s2) * s3)].  A
    fresh product on every call.
    @raise Invalid_argument on an empty subject list. *)
val product : t -> Vyrd.Spec.t * Vyrd.View.t

(** [shards t level] is one farm shard per subject, named after it: view
    refinement at [`View] and [`Full], I/O refinement below.
    @param invariants also check each subject's runtime invariants in view
      mode (default [false]). *)
val shards : ?invariants:bool -> t -> Vyrd.Log.level -> Vyrd_pipeline.Farm.shard list

(** [composite_shard t level] is the one shard ["composite"] checking
    {!product} on one lane, in the mode {!shards} picks for [level]. *)
val composite_shard : t -> Vyrd.Log.level -> Vyrd_pipeline.Farm.shard

(** [reference t log] is the offline verdict on [log] against {!product}
    and the index of its first violating event, in the mode {!shards}
    picks for the log's level. *)
val reference : t -> Vyrd.Log.t -> Vyrd.Report.t * int option
