(** Implementation-side view definitions ([viewI], paper §5, §6.3–6.4).

    A view extracts the canonical abstract contents from the shadow replay
    of the implementation's shared state.  [Full] computes the whole view
    from its lookups; [Keyed] declares which abstract key each shared
    variable contributes to, so only keys touched since the last commit are
    recomputed and re-compared — the incremental scheme of §6.4.  [Pair]
    composes the views of two structures living in the same log (their
    variable spaces must be disjoint); it matches a specification composed
    with {!Spec_compose}.

    {b Memoized [Full] components.}  An evaluator keeps each [Full]
    component's last value and recomputes it only when it is {e stale}: when
    some variable the component has looked up, in this or any earlier
    evaluation, hit or miss, has since been published with a value not
    [Repr.equal] to the one before.  So a [Full] view must be a
    deterministic function of the values its [lookup] returns: it may not
    read anything else that changes (a clock, a counter, a global table),
    and two calls that see the same lookups must return equal values.
    Read sets may depend on the values read (following a pointer, say):
    the variables read on every path taken are recorded.  Each component
    owns one reader bit; past [Sys.int_size] components, bits are shared,
    which only adds recomputes. *)

type lookup = string -> Repr.t option

type keyed = {
  keys_of_var : string -> Repr.t list;
      (** abstract keys a write to this variable may affect (often one) *)
  project : lookup -> Repr.t -> Repr.t option;
      (** current value at a key, [None] when absent from the structure *)
}

type t =
  | Full of (lookup -> Repr.t)
  | Keyed of keyed
  | Pair of t * t

(** [canonical_of_assoc kvs] sorts an association list into the canonical
    [List [Pair (k, v); ...]] form both view sides use. *)
val canonical_of_assoc : (Repr.t * Repr.t) list -> Repr.t

(** Evaluator state for a view over a replay: [Keyed] projection tables
    and [Full] memos.  An evaluator serves one replay for its whole life. *)
type eval

val make_eval : t -> eval

(** [recompute eval replay] returns the current [viewI], recomputing only
    dirty keys in the [Keyed] case and only stale [Full] components.
    Consumes the replay's dirty set and its stale reader bits
    ({!Replay.take_stale}); when another evaluator took those last, every
    [Full] component is recomputed. *)
val recompute : eval -> Replay.t -> Repr.t

(** Number of key projections performed so far ([Keyed] components only) —
    exposed for the incremental-view ablation benchmark. *)
val projections : eval -> int

(** [reset eval] drops every cached [Keyed] projection table and every
    [Full] memo.  Used when a checker restores from a checkpoint: with all
    replay variables marked dirty, the next {!recompute} rebuilds the
    tables from the restored replay instead of trusting stale entries. *)
val reset : eval -> unit
