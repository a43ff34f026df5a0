(** Compositional specifications: check several independent data structures
    that share one log in a single refinement run.

    The paper verifies Boxwood modularly — Cache+Chunk Manager separately
    from the B-link tree (§7.2).  Composition is the complementary tool:
    when two structures are exercised by the same program, the product
    specification drives both at once.  Method-name spaces must be disjoint
    (each method is routed to the component that knows it), and the
    composite view is the {!View.Pair} of the components' views. *)

(** [pair a b] is the product specification.  Its [meth] resolves a name
    to the component that knows it, left first, so [kind], [apply] and
    [observe] route by one constructor match; the product keeps no table
    and is safe to share between domains.  A product state keeps the view of each component until that
    component changes, so a commit on one side rebuilds no view of the
    other: this relies on [apply] never mutating its argument.
    @raise Invalid_argument from [meth] for methods neither component
    knows. *)
val pair : Spec.t -> Spec.t -> Spec.t

(** [pair_views va vb] is the matching implementation-view composition —
    the components' variable spaces must be disjoint. *)
val pair_views : View.t -> View.t -> View.t
