(** Boxwood's Cache module (paper Fig. 8, §7.2.1–7.2.2).

    The cache sits between clients (the B-link tree) and the
    {!Chunk_manager}, holding per-handle entries that are [`None], [`Clean]
    or [`Dirty].  [write] follows the three paths of Fig. 8 (new entry /
    clean entry / dirty entry), each with its own commit point; [flush]
    writes dirty entries back to the chunk manager and marks them clean;
    [evict] drops an entry, writing it back first only when dirty — a clean
    entry is trusted to match stable storage.

    The injectable bug is exactly §7.2.2: on the dirty-entry path the
    in-place [COPY-TO-CACHE] runs without [LOCK(clean)], so a concurrent
    [flush] can read a half-copied buffer, push the corrupt bytes to the
    chunk manager and mark the entry clean.  The corruption is masked while
    the entry stays cached and surfaces when a clean [evict] drops it — view
    refinement reports it at that commit, and the runtime invariant
    {!invariant_clean_matches_chunk} reports it already at the flush.

    All buffers have the fixed length [buf_size]; [write] pads or truncates
    its argument.  To use the cache as an unverified substrate (for the
    B-link tree), instantiate it on a context whose log has level [`None]:
    scheduling behaviour is preserved while no events are recorded. *)

type bug = Unprotected_dirty_copy

type t

val create :
  ?bugs:bug list -> buf_size:int -> Vyrd.Instrument.ctx -> Chunk_manager.t -> t

(** Fig. 8 WRITE. *)
val write : t -> int -> string -> unit

(** Read-through (no cache fill): cached bytes, else chunk bytes padded to
    [buf_size] (or [""] if never written). *)
val read : t -> int -> string

(** Like {!read}, but a miss installs a clean entry (the usual cache-fill
    discipline).  Still an observer: the entry it installs holds exactly the
    chunk's bytes, so the abstract store — and hence [viewI] — is unchanged
    by the fill. *)
val read_fill : t -> int -> string

(** Fig. 8 FLUSH: write back every dirty entry, mark clean.  Internal
    method — the abstract store is unchanged. *)
val flush : t -> unit

(** Drop handle [h]'s entry (writing back first when dirty).  Internal. *)
val evict : t -> int -> unit

(** [viewdef ~chunks ~buf_size] — abstract store contents: cache entry if
    present, else chunk bytes. *)
val viewdef : chunks:int -> buf_size:int -> Vyrd.View.t

(** Incremental variant of {!viewdef} (§6.4): one key per handle, projected
    by the same per-handle function, so the two views agree by
    construction.  A write to a [cache.*[h]]/[chunk[h]] variable makes only
    key [h] stale. *)
val viewdef_keyed : chunks:int -> buf_size:int -> Vyrd.View.t

(** Paper invariant (i): a clean entry's bytes equal the chunk's bytes. *)
val invariant_clean_matches_chunk : chunks:int -> buf_size:int -> Vyrd.Checker.invariant

(** Specification: the abstract store, a map from handle to bytes. *)
val spec : chunks:int -> Vyrd.Spec.t

(** Seeded mutant ({!Vyrd_faults.Faults}): when armed, [flush] marks dirty
    entries clean without writing them back — the chunk store keeps stale
    bytes that a later clean evict re-exposes.  The clean-matches-chunk
    invariant catches it already at the flush. *)
val fault_stale_writeback : Vyrd_faults.Faults.t

(** Seeded lock-order inversion ([Deadlock] kind): when armed, [flush] takes
    the chunk-manager lock before [LOCK(clean)] — opposite to the read/evict
    paths.  Some schedules deadlock; {!Vyrd_analysis.Lockgraph} flags the
    cycle from a single non-deadlocking [`Full] trace. *)
val fault_lock_order_inversion : Vyrd_faults.Faults.t

(** Gate-protected benign inversion ([Benign] kind): [write] takes
    [gate -> order_a -> order_b] while [flush] takes
    [gate -> order_b -> order_a].  The shared gate makes the ABBA cycle
    unreachable, so armed runs stay correct and no detector may fire. *)
val fault_gated_inversion : Vyrd_faults.Faults.t

(** Seeded unreleased lock ([Leak] kind): when armed, [flush] acquires a
    stray instrumented lock and never releases it.  Runs still complete
    (reentrant mutex, no other path touches it) with correct results; the
    resource-leak temporal monitor must convict at stream end with the
    still-held set. *)
val fault_unreleased_lock : Vyrd_faults.Faults.t
