(** Bounded blocking ring buffer with backpressure.

    The hand-off between the instrumented program and a verification domain
    (paper §4.2's separate verification thread).  Unlike {!Squeue}, capacity
    is fixed at creation: a producer that outruns its consumer blocks in
    {!push} until space frees up, so the queue can never grow without limit
    — the memory bound the streaming pipeline depends on.

    Designed for one producer and one consumer (the log lock already
    serializes producers), but safe under any number of each.  Occupancy
    high-water mark and cumulative producer stall time are recorded for the
    metrics layer. *)

type 'a t

(** [create ~capacity empty] allocates a ring holding at most [capacity]
    elements.  Slots hold elements directly, with no option box around
    each; [empty] fills every free slot, and a popped slot is overwritten
    with it, so the ring keeps no popped element alive.
    @raise Invalid_argument when [capacity <= 0]. *)
val create : capacity:int -> 'a -> 'a t

(** [push t x] enqueues [x], blocking while the ring is full.  After
    {!close}, pushes are dropped silently (counted in {!rejected}) — the
    drain protocol closes the ring only once producers have finished, so a
    late push is a stray event, not data loss worth crashing over. *)
val push : 'a t -> 'a -> unit

(** [push_batch t src ~pos ~len] enqueues [src.(pos .. pos+len-1)] in order,
    amortizing one lock acquisition over every run of elements that fits in
    the free space — the per-event mutex handshake of {!push} collapses to
    roughly one per [capacity] elements under a keeping-up consumer.  Blocks
    like {!push} while the ring is full; after {!close}, the rest of the
    slice is dropped and counted in {!rejected}.  [pos] defaults to [0],
    [len] to the rest of the array.
    @raise Invalid_argument when the slice is out of bounds. *)
val push_batch : 'a t -> ?pos:int -> ?len:int -> 'a array -> unit

(** [pop t] dequeues, blocking while the ring is empty; [None] once the ring
    is closed {e and} drained. *)
val pop : 'a t -> 'a option

(** [pop_batch t dest] dequeues up to [Array.length dest] elements in one
    lock acquisition into [dest.(0 .. n-1)] (the consumer-side mirror of
    {!push_batch}).  Blocks while the ring is empty; returns [0] only once
    the ring is closed {e and} drained.  [dest] slots beyond [n-1] are left
    untouched.  [dest] is the caller's: to keep nothing alive, the caller
    overwrites the slots it has consumed.
    @raise Invalid_argument when [dest] is empty. *)
val pop_batch : 'a t -> 'a array -> int

(** [close t] ends the stream: blocked producers give up, and consumers see
    [None] after draining the remaining elements.  Idempotent. *)
val close : 'a t -> unit

val closed : 'a t -> bool
val length : 'a t -> int

(** {1 Instrumentation for the metrics layer} *)

(** Highest occupancy ever observed — never exceeds [capacity]. *)
val high_water : 'a t -> int

(** Cumulative nanoseconds producers spent blocked in {!push} /
    {!push_batch}, measured with the monotonicized clock ({!Mclock}) —
    never negative, even across wall-clock steps. *)
val stall_ns : 'a t -> int

(** Pushes dropped because the ring was already closed. *)
val rejected : 'a t -> int
