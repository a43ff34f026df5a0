(** Systematic schedule exploration (stateless model checking in the style
    of CHESS / dynamic partial-order tools, without reduction).

    The cooperative engine makes every run a pure function of its scheduling
    decisions; this module enumerates the decision tree by depth-first
    search: run once following a scripted prefix (defaulting to choice 0
    beyond it), record the arity of every decision point, then branch on the
    untried alternatives.

    Composed with refinement checking this turns VYRD from a testing tool
    into a bounded verifier for small scenarios: every interleaving of a
    tiny workload is checked, so "no violation" is a proof up to the bound
    rather than luck of the seed. *)

type result = {
  schedules : int;  (** schedules actually executed *)
  exhausted : bool;  (** the whole space was covered within the budget *)
  deadlocks : int;
      (** schedules that ended in {!Coop.Deadlock} — caught and counted so
          exploration can both survive and systematically find deadlocks *)
  first_deadlock : int array option;
      (** the complete decision script of the first deadlocking schedule
          (one entry per decision point, the run-queue index taken) — feed
          it to {!replay} to reproduce the hang deterministically *)
  flagged : int;  (** runs the caller's [flagged] predicate accepted *)
  first_flagged : int array option;
      (** decision script of the first flagged run — the certificate
          [Vyrd_monitor] returns for temporal-property violations *)
}

(** [explore ?max_schedules ?max_steps make_main] runs one schedule per
    point of the decision tree, depth-first.  [make_main ()] must build a
    {e fresh} workload closure (fresh data structure, fresh log) each time
    it is called — one call per schedule.

    Exploration stops early when the budget runs out or when [stop ()]
    returns true (checked after each schedule); [exhausted] reports whether
    every schedule was covered.

    [preemption_bound] caps the number of {e preemptions} per schedule — run-
    queue picks that switch away from a thread that could have continued
    (CHESS-style context bounding).  Once a run's budget is spent, the
    running thread is forced to continue, so those decision points stop
    branching.  Most concurrency bugs need very few preemptions, and a bound
    of 1–2 usually shrinks an intractable space into an exhaustible one;
    [exhausted] then means "verified for every schedule with at most that
    many preemptions".

    [flagged] is evaluated once after every schedule (completed or
    deadlocked); when it returns true the run's full decision script is
    recorded — {!result.first_flagged} is then a replayable certificate of
    the first accepted run, exactly like [first_deadlock].  Callers
    typically close [flagged] over per-run state captured by [make_main]
    (e.g. the run's log) and combine it with [stop] to halt on the first
    hit.

    @param max_schedules budget (default [10_000])
    @param max_steps per-run livelock guard (default [1_000_000]) *)
val explore :
  ?max_schedules:int ->
  ?max_steps:int ->
  ?preemption_bound:int ->
  ?stop:(unit -> bool) ->
  ?flagged:(unit -> bool) ->
  (unit -> Sched.t -> unit) ->
  result

(** [replay schedule main] runs [main] once under the recorded decision
    script (choice 0 past its end), e.g. a {!result.first_deadlock}
    certificate.  Raises whatever the run raises — for a deadlock
    certificate, {!Coop.Deadlock}. *)
val replay : ?max_steps:int -> int array -> (Sched.t -> unit) -> unit
