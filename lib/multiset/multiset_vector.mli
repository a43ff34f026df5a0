(** Array-based concurrent multiset — the paper's running example
    (Fig. 2, Fig. 4, §2).

    Elements live in a fixed array of slots; [find_slot] reserves a free
    slot by writing the element under the slot's lock, and a [valid] bit
    publishes the slot's membership.  [insert_pair] reserves two slots and
    publishes both valid bits inside a commit block whose commit action is
    the second bit (§2.1) — the pattern that reduction-based atomicity
    checkers cannot prove (§8).

    The injectable bug reproduces Fig. 5: [find_slot] tests a slot for
    emptiness {e before} taking its lock, so two concurrent reservations can
    claim the same slot and one element is silently overwritten (Fig. 6 and
    the "moving acquire in FindSlot" row of Table 1). *)

type bug =
  | Racy_find_slot
      (** Fig. 5: the emptiness test happens before the slot lock is taken *)
  | Misplaced_commit
      (** not a concurrency bug but a wrong commit-point annotation (§4.1):
          insert commits at the slot reservation instead of the valid-bit
          write, so the witness interleaving is wrong and refinement
          checking reports violations on correct code *)

type t

val create : ?bugs:bug list -> capacity:int -> Vyrd.Instrument.ctx -> t

type outcome = Success | Failure

val insert : t -> int -> outcome
val insert_pair : t -> int -> int -> outcome

(** [delete], [lookup] and [count] take all slot locks in ascending order,
    so their results are atomic snapshots. *)
val delete : t -> int -> bool

val lookup : t -> int -> bool
val count : t -> int -> int

(** Fig. 2's per-slot scanning variants, kept faithful to the paper.  They
    are {e weakly consistent}: when an element is deleted from one slot and
    re-inserted into an already-scanned slot during the scan, a [false]
    answer corresponds to no atomic point in the method's window, and
    refinement checking (correctly) reports a violation.  This is a finding
    of the reproduction, discussed in DESIGN.md §5. *)
val scan_delete : t -> int -> bool

val scan_lookup : t -> int -> bool

(** [viewdef ~capacity] is the [viewI] definition of §5.1: the bag of
    elements in valid slots, as a canonical (element, multiplicity) list. *)
val viewdef : capacity:int -> Vyrd.View.t

(** Elements currently published, straight from memory (no locking, no
    logging) — for post-run white-box assertions only. *)
val unsafe_contents : t -> int list

(** Seeded mutant ({!Vyrd_faults.Faults}): when armed, [find_slot] claims a
    free slot with {e no} lock at all, so concurrent inserts can reserve the
    same slot and one element is lost — the canonical lost update. *)
val fault_lost_update : Vyrd_faults.Faults.t
