(** Bounded exhaustive linearizability checking by brute-force enumeration
    (the reduction-to-reachability idea of Bouajjani–Emmi–Enea–Hamza,
    specialized to fixed-size histories).

    Every linearization order extending the real-time precedence of the
    history is enumerated directly — no just-in-time scheduling, no
    memoization, no undo machinery — with the same semantics as {!Jit} for
    pending operations (a pending mutator may linearize with each guessed
    return value or be dropped; pending observers are dropped).  The two
    implementations share nothing but {!History}, which is what makes their
    agreement on random histories a meaningful differential gate.

    It is also the naive serialization search of paper §2, the strawman of
    the E7 ablation ([bench ablation-naive]): run over [History.of_log log],
    its transition count is the black-box cost that VYRD's commit-order
    witness avoids.

    Cost is factorial, so {!check} refuses histories longer than [max_ops]
    (default {!default_max_ops}). *)

val default_max_ops : int

(** [check h spec] is the brute-force verdict and the number of spec
    transitions attempted.
    @raise Invalid_argument if [h] has more than [max_ops] operations or
      contains a method [spec] does not know. *)
val check :
  ?budget:int -> ?pending_rets:Vyrd.Repr.t list -> ?max_ops:int ->
  History.t -> Vyrd.Spec.t -> Jit.outcome * int
