(** Reference refinement checker — a direct, clarity-first transcription of
    the paper's definitions (§4, §5), used as a test oracle.

    Unlike {!Checker}, which resolves everything incrementally in one pass,
    this implementation works in whole phases over a complete log:

    + match calls and returns into method executions and collect the commit
      actions (rejecting ill-formed logs);
    + sort committed executions by commit position — the witness
      interleaving — and fold the specification over it;
    + for view refinement, rebuild the shadow state {e from scratch} for
      every commit prefix and compare [viewI] with [viewS];
    + validate every non-committing execution against each specification
      state in its window.

    It is quadratic and allocation-happy by design; its only job is to be
    obviously faithful to the paper so the fast checker can be validated
    against it ([test/test_oracle.ml]).  For the same reason it resolves a
    method name with [Spec.S.meth] at every use instead of keeping the
    handle, so a resolution bug in the checker's method table cannot hide
    behind the same bug here. *)

(** [check ?view log spec] returns [Ok ()] or a description of the first
    problem found (phase order, not log order — agreement with {!Checker}
    is on pass/fail only). *)
val check : ?view:View.t -> Log.t -> Spec.t -> (unit, string) result

(** Convenience: agreement on the pass/fail verdict with a {!Checker} run
    in the same mode. *)
val agrees_with_checker : ?view:View.t -> Log.t -> Spec.t -> bool

(** A predicted first detection: the log index at which the incremental
    checker first reports, a kind string matching {!Report.tag} (["io"],
    ["view"], ["observer"] or ["ill-formed"]), and a human-readable
    description. *)
type failure = { f_index : int; f_kind : string; f_detail : string }

(** [check_indexed ?view log spec] predicts the incremental checker's exact
    first detection point from first principles: commit ordinal [k]'s
    transition resolves at the running-max return position [r_k] of commits
    [1..k], an all-rejecting observer window [lo..hi] fails at
    [max ret_at r_hi] provided commit [hi] resolves successfully, and
    structural errors stop the scan at their own index.  Ties within one
    event resolve by commit ordinal, commits before observers.  The index
    agrees with {!Checker.check_indexed} (and with a single-shard
    {!Farm}'s [sr_fail_index]); invariant checking is not modelled. *)
val check_indexed : ?view:View.t -> Log.t -> Spec.t -> (unit, failure) result

(** Full agreement — verdict, detection index, and violation kind — with a
    {!Checker.check_indexed} run in the same mode. *)
val agrees_with_checker_indexed : ?view:View.t -> Log.t -> Spec.t -> bool
