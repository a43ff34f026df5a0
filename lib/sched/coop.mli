(** Deterministic cooperative scheduling engine.

    Threads are fibers multiplexed on the host thread with OCaml 5 effect
    handlers.  Control transfers only at scheduling points — {!Sched.t.yield},
    lock acquisition, and thread spawn — and every choice among runnable
    fibers (and among lock waiters) is drawn from a seeded PRNG, so an entire
    concurrent execution is a deterministic function of [seed].

    This is what makes the paper's measurements reproducible: "number of
    methods executed before the first refinement violation" (Table 1) is
    obtained by sweeping seeds rather than by racing a real machine.

    {b How a switch happens.}  At a scheduling point a fiber performs an
    effect.  Its handler queues the fiber's continuation (at the end of the
    run queue, or among a lock's waiters), then takes one step in tail
    position: count it, check [max_steps], draw the pick and [continue]
    the picked fiber, or start it with [match_with] if it never ran.  So
    control passes from fiber to fiber inside the handler, and a switch
    that resumes a fiber nests no frame; each fiber's start nests one
    until the run ends.  When the run queue is empty the chain of switches
    unwinds to {!run}, which returns, re-raises the first exception a fiber
    raised, or raises {!Deadlock}. *)

exception Deadlock of string
(** All unfinished threads are blocked on locks. *)

exception Livelock of int
(** More scheduling points than [max_steps] were executed. *)

type stats = {
  steps : int;  (** scheduling points executed *)
  threads : int;  (** total threads created, including the main thread *)
}

(** One scheduling decision: pick an index into [candidates] (the thread
    each choice would run).  For run-queue picks, [running] is the thread
    whose slice just ended, when it is still a candidate — choosing anything
    else is a {e preemption}.  Lock-waiter wake-ups have [running = None]. *)
type choice = { candidates : Tid.t array; running : Tid.t option }

(** [run ?seed ?max_steps ?decide main] executes [main sched] plus
    everything it spawns to completion.  The first exception raised by any
    thread is re-raised after the run winds down.

    Every scheduling decision — which runnable fiber continues, which lock
    waiter is woken — draws from [decide choice] (an index into
    [choice.candidates]).  The default derives decisions from [seed]'s PRNG;
    {!Explore} supplies scripted policies to enumerate schedules
    systematically.

    The default takes a shortcut at a yield: it draws the pick over the run
    queue plus the yielding thread itself, and when the draw picks the
    yielder, the step is counted and the thread simply continues, with no
    continuation captured and resumed.  A [decide] that draws
    [Prng.int rng (Array.length candidates)] from [Prng.create seed] goes
    through the general path and reproduces the default exactly: the same
    schedule, the same [steps], the same [Livelock] count.

    @param seed scheduling seed (default [0]); ignored when [decide] is given
    @param max_steps livelock guard (default [20_000_000]) *)
val run :
  ?seed:int -> ?max_steps:int -> ?decide:(choice -> int) -> (Sched.t -> unit) -> unit

(** Same as {!run} but also returns scheduling statistics. *)
val run_with_stats :
  ?seed:int -> ?max_steps:int -> ?decide:(choice -> int) -> (Sched.t -> unit) -> stats
