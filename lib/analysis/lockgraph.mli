(** Goodlock-style lock-order-graph analysis: deadlock prediction from one
    non-deadlocking [`Full]-level run.

    {!Vyrd_sched.Explore.stats} can prove a workload deadlocks under {e some}
    schedule, but only by finding that schedule.  This pass answers the same
    question from a single healthy trace: it builds the directed graph whose
    edge [l1 -> l2] records that some thread acquired [l2] while holding
    [l1], and every cycle in that graph is a candidate deadlock — threads
    acquiring the cycle's locks in opposite orders could block each other
    under a different interleaving (Havelund's Goodlock; Bensalem &
    Havelund's refinement of it).

    Two classic suppressions keep the report precise:

    - {b single thread}: if no choice of one witness per edge uses
      pairwise-distinct threads, only one thread ever ordered the locks both
      ways — a thread cannot deadlock with itself (our mutexes are
      reentrant);
    - {b gate lock}: if every such choice shares a lock {e outside} the
      cycle held across all chosen acquires, that outer lock serializes the
      pattern and the deadlocking interleaving is impossible.

    Every reported cycle carries one concrete witness per edge — thread, log
    index, the full held lockset and the enclosing method execution — so the
    report is actionable without re-running the program. *)

type meth = { mid : string; call_index : int }

(** A concrete acquisition of [dst] while the thread held [held] (which
    contains the edge's [src]). *)
type witness = {
  index : int;  (** log position of the [Acquire] *)
  tid : Vyrd_sched.Tid.t;
  held : string list;  (** locks held at that moment, excluding [dst] *)
  meth : meth option;  (** [None] for initialization / daemon acquires *)
}

(** [src -> dst] with up to one witness per distinct thread (bounded). *)
type edge = { src : string; dst : string; witnesses : witness list }

(** An elementary cycle that survived both suppressions.  [locks] starts at
    the lexicographically smallest lock; [edges] are the cycle's edges in
    order ([locks.(i) -> locks.(i+1 mod k)]); [chosen] is one witness per
    edge with pairwise-distinct threads and no common gate lock. *)
type cycle = { locks : string list; edges : edge list; chosen : witness list }

type result = {
  cycles : cycle list;  (** sorted by lock list *)
  locks : int;  (** distinct locks seen *)
  edges : int;  (** distinct ordered lock pairs *)
  acquires : int;  (** [Acquire] events seen *)
  events : int;
  suppressed_gated : int;
  suppressed_single_thread : int;
  graph : edge list;  (** the full edge set, sorted by [(src, dst)] *)
}

(** {1 Streaming interface} *)

type t

val create : unit -> t

(** [feed t ev] advances the analysis by one event.  Events must arrive in
    log order; positions are tracked internally.  Reentrant acquires add no
    edges; unmatched releases are ignored (the linter reports those). *)
val feed : t -> Vyrd.Event.t -> unit

(** The graph and surviving cycles accumulated so far. *)
val result : t -> result

(** {1 Incremental core}

    The lock-order state behind {!feed}, for a caller that keeps its own
    stream position — the lock-reversal monitor feeds only lock events.
    Held locks are tracked per thread with reentrancy depths. *)

(** [acquire t ~index tid lock] records that [tid] acquired [lock] at
    stream position [index], and returns the [(src, w)] pairs whose edge
    [src -> lock] gained the witness [w], innermost held [src] first.  A
    reentrant acquire adds nothing. *)
val acquire : t -> index:int -> Vyrd_sched.Tid.t -> string -> (string * witness) list

(** [release t tid lock] drops one reentrancy level; unmatched releases are
    ignored. *)
val release : t -> Vyrd_sched.Tid.t -> string -> unit

(** [reversal t ~src ~dst w] is the earliest witness of the opposite edge
    [dst -> src] that convicts [w], a witness of [src -> dst]: another
    thread, and no gate lock (one outside the pair held across both). *)
val reversal : t -> src:string -> dst:string -> witness -> witness option

(** {1 Whole-log analysis} *)

(** [analyze log] streams [log] through a fresh analysis.  Logs of any level
    are accepted: below [`Full] no lock events were recorded, so the graph
    is empty and the verdict trivially clean — callers needing the stronger
    guarantee should check [result.acquires] or {!Vyrd.Log.records_reads}. *)
val analyze : Vyrd.Log.t -> result

(** No surviving cycles. *)
val ok : result -> bool

(** Sorted names of every lock on a reported cycle. *)
val cyclic_locks : result -> string list

val pp_witness : Format.formatter -> witness -> unit
val pp_cycle : Format.formatter -> cycle -> unit
val pp : Format.formatter -> result -> unit
