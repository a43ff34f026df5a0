(** Implementation-side view definitions ([viewI], paper §5, §6.3–6.4).

    A view extracts the canonical abstract contents from the shadow replay
    of the implementation's shared state.  [Full] computes the whole view
    from its lookups; [Keyed] names its abstract keys up front and projects
    each one separately, so only keys whose variables changed since the
    last commit are recomputed — the incremental scheme of §6.4.  [Pair]
    composes the views of two structures living in the same log (their
    variable spaces must be disjoint); it matches a specification composed
    with {!Spec_compose}.

    {b Memoized components.}  An evaluator splits a view into components —
    each [Full] view is one, each key of a [Keyed] view another — keeps
    each component's last value and recomputes it only when it is
    {e stale}: when some variable the component has looked up, in this or
    any earlier evaluation, hit or miss, has since been published with a
    value not [Repr.equal] to the one before.  So a [Full] view and a
    [Keyed] projection must be deterministic functions of the values their
    [lookup] returns: they may not read anything else that changes (a
    clock, a counter, a global table), and two calls that see the same
    lookups must return equal values.  Read sets may depend on the values
    read (following a pointer, say): the variables read on every path
    taken are recorded.  Since a miss is recorded too, a key whose
    variables are not written yet becomes stale at their first write.
    Each component owns one reader bit; past [Sys.int_size] components,
    bits are shared, which only adds recomputes.

    {b Lookup trails.}  A component also remembers the names its last
    evaluation looked up, in order, with the replay cell each one found.
    When a recompute looks up a name that is {e physically} ([==]) the
    name at the same position of that trail, it reads the remembered cell
    without hashing the name.  So a view should look its variables up
    through names built once, with the definition (an array of precomputed
    names, say); a name built per call ([Printf.sprintf] inside the
    closure) is still correct, but simply misses and takes the hashed
    probe every time (a component whose recompute had no hit stops
    keeping a trail).  A {!Replay.restore} drops every trail.

    {b No scratch state.}  One view definition may serve several checkers
    at once, on different domains (a benchmark's set-up checks units on
    two).  So a [Full] closure or a [Keyed] projection must not keep
    mutable scratch (a buffer, a table, a counter) across calls: what it
    mutates it allocates per call. *)

type lookup = string -> Repr.t option

type keyed = {
  keys : Repr.t list;  (** every abstract key the view may hold *)
  project : lookup -> Repr.t -> Repr.t option;
      (** current value at a key, [None] when absent from the structure *)
}

type t =
  | Full of (lookup -> Repr.t)
  | Keyed of keyed
  | Pair of t * t

(** [canonical_of_assoc kvs] sorts an association list into the canonical
    [List [Pair (k, v); ...]] form both view sides use.  A [Keyed] view's
    value is [canonical_of_assoc] of the keys whose projection is [Some]. *)
val canonical_of_assoc : (Repr.t * Repr.t) list -> Repr.t

(** Evaluator state for a view over a replay: the memoized components.  An
    evaluator serves one replay for its whole life. *)
type eval

val make_eval : t -> eval

(** [recompute eval replay] returns the current [viewI], recomputing only
    stale components.  Consumes the replay's stale reader bits
    ({!Replay.take_stale}); when another evaluator took those last, or the
    replay was restored since, every component is recomputed. *)
val recompute : eval -> Replay.t -> Repr.t

(** Number of key projections performed so far ([Keyed] components only;
    [Full] recomputes are not counted) — exposed for the incremental-view
    ablation benchmark. *)
val projections : eval -> int
