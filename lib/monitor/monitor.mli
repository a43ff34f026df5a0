(** Streaming temporal-property monitors.

    Refinement is one property; operators of an in-service verifier want
    many.  This module is a small LTL-over-finite-traces combinator library
    evaluated {e incrementally} over the event stream by formula
    progression: each monitor is a state machine advanced one event at a
    time, carrying a three-valued verdict ({!Sat} / {!Viol} / {!Pending})
    so a violation is reported the moment the stream makes it unavoidable
    and open obligations are resolved at stream end (finite-trace
    semantics: a pending [eventually] fails, a pending [always] succeeds).

    Two built-in property packs are compiled from the combinators:
    {!lock_reversal} (the dynamic twin of the static {!Vyrd_analysis.Lockgraph},
    with the same gate-lock and single-thread suppressions) and
    {!resource_leak} ([always (acquire -> eventually release)] per lock).
    {!pass} adapts any monitor set to the {!Vyrd_analysis.Pass} interface so
    the farm's analysis lane, [pipeline --monitor] and vyrdd sessions all run
    them; {!first_violation} composes monitors with {!Vyrd_sched.Explore} so
    violations can be searched for, not just observed. *)

(** {1 Formulas} *)

type f

val tt : f
val ff : f

(** [atom name p] holds at a position iff [p] holds of the event there.
    [name] identifies the atom in witnesses and for simplification, so two
    atoms with the same name should have the same predicate. *)
val atom : string -> (Vyrd.Event.t -> bool) -> f

val not_ : f -> f
val and_ : f -> f -> f
val or_ : f -> f -> f
val implies : f -> f -> f

(** Strong next: there is a next event and [f] holds of the suffix there. *)
val next : f -> f

(** [until a b]: [b] holds at some position, [a] at every position before. *)
val until : f -> f -> f

val eventually : f -> f
val always : f -> f

(** [within n f]: [f] holds at one of the next [n] positions (this one
    included); [within 0 f] is [ff]. *)
val within : int -> f -> f

val pp_f : Format.formatter -> f -> unit

(** [eval f trace] is the reference whole-trace evaluator (classic
    recursive LTLf semantics) the incremental engine is differentially
    tested against; [true] iff [f] holds of [trace] from position 0. *)
val eval : f -> Vyrd.Event.t array -> bool

(** {1 Verdicts} *)

type witness = {
  at : int;  (** log index of the violating event ([fed] for end-of-stream) *)
  tid : Vyrd_sched.Tid.t option;
  failed : string;  (** the sub-formula that failed, rendered *)
  detail : string option;  (** pack-supplied context, e.g. the still-held set *)
}

type verdict = Sat | Viol of witness | Pending

val pp_witness : Format.formatter -> witness -> unit

(** {1 Monitors} *)

type t

(** [of_formula ~name f] monitors one closed formula. *)
val of_formula : name:string -> f -> t

val name : t -> string

(** Events fed so far. *)
val fed : t -> int

(** [feed t ev] advances the monitor by one event (positions are tracked
    internally).  Feeding after {!finish} is ignored. *)
val feed : t -> Vyrd.Event.t -> unit

(** The verdict so far: [Viol] as soon as any obligation is unsatisfiable,
    [Sat] once a static formula can no longer fail, [Pending] otherwise. *)
val verdict : t -> verdict

(** [finish t] resolves open obligations under finite-trace semantics and
    returns the final verdict.  Idempotent. *)
val finish : t -> verdict

(** Every violation accumulated (a pack can convict several properties). *)
val violations : t -> witness list

(** {1 Built-in packs} *)

(** Lock-acquisition-order reversal: order [l1 < l2] observed, later
    [l2 < l1] — convicted only from witnesses on distinct threads with no
    common gate lock held across both.  The pack holds no lock-order state
    of its own: it reads {!Vyrd_analysis.Lockgraph}'s incremental core
    ({!Vyrd_analysis.Lockgraph.acquire} and
    {!Vyrd_analysis.Lockgraph.reversal}, at this monitor's stream index), so
    it matches the lock-order graph on two-lock cycles by construction. *)
val lock_reversal : unit -> t

(** [always (acquire -> eventually release)] per lock, reentrancy-aware;
    convicts at stream end with the still-held set. *)
val resource_leak : unit -> t

(** Both built-ins, fresh. *)
val builtins : unit -> t list

val builtin_names : string list

(** {1 Specs} *)

(** [parse s] reads the tiny monitor formula syntax:
    atoms [call(M) return(M) acquire(L) release(L) read(V) write(V) commit
    any true false], operators [! & | -> X F G U within N] with the usual
    precedences, parentheses.  E.g.
    [G (call(Insert) -> F return(Insert))]. *)
val parse : string -> (f, string) result

(** [of_spec s] resolves a built-in pack name ([lock-reversal],
    [resource-leak]) or falls back to {!parse}. *)
val of_spec : string -> (t, string) result

(** {1 Analysis-lane adapter} *)

(** [pass ?metrics monitors] runs [monitors] as one {!Vyrd_analysis.Pass}
    named ["monitor"]: every violation becomes an [`Error] diagnostic at
    the witness index.  At finish, publishes [analysis.monitor_events],
    [analysis.monitor_violations], per-verdict counters and a per-monitor
    violation counter into [metrics]. *)
val pass : ?metrics:Vyrd_pipeline.Metrics.t -> t list -> Vyrd_analysis.Pass.t

(** {1 Schedule search} *)

type search_outcome = {
  schedules : int;  (** schedules executed *)
  exhausted : bool;  (** space covered without finding a violation *)
  violation : (string * witness) option;  (** monitor name and witness *)
  schedule : int array option;
      (** replayable decision script of the violating schedule — feed to
          {!Vyrd_sched.Explore.replay}, mirroring [first_deadlock] *)
}

(** [first_violation ~monitors scenario] explores schedules of a
    cooperative workload until some monitor convicts a completed trace.
    [scenario ()] must build a fresh run each time: a main closure for
    {!Vyrd_sched.Explore.explore} plus a getter returning the run's log
    once the run completed ([None] while it hasn't, e.g. deadlocked runs).
    [monitors ()] must build fresh monitors per candidate trace. *)
val first_violation :
  ?max_schedules:int ->
  ?max_steps:int ->
  ?preemption_bound:int ->
  monitors:(unit -> t list) ->
  (unit -> (Vyrd_sched.Sched.t -> unit) * (unit -> Vyrd.Log.t option)) ->
  search_outcome
