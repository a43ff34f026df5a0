(** The random test-program generator of paper §7.1.

    "Each test program first generates a random pool of keys to be shared by
    all threads as arguments for method calls.  Then the program creates a
    number of threads each of which, using arguments randomly chosen from
    the pool, issues a given number of random method calls to the same data
    structure instance concurrently.  The pool is reduced gradually over
    time to focus more concurrent method calls on a smaller region of the
    data structure.  In implementations with compression mechanisms, the
    compression thread [...] is run continuously." *)

type built = {
  random_op : Vyrd_sched.Prng.t -> int -> unit;
      (** perform one random method call with the given key *)
  daemon : (unit -> unit) option;
      (** one step of the data structure's background thread
          (compression / flush), run continuously while workers live *)
}

type config = {
  threads : int;
  ops_per_thread : int;
  key_pool : int;  (** initial pool size; shrinks to 2 over a thread's run *)
  key_range : int;  (** keys are drawn from [\[0, key_range)] *)
  seed : int;
  log_level : Vyrd.Log.level;
}

val default : config

(** [run config build] executes the workload and returns the log.  [build]
    constructs the instrumented data structure.
    @param native run under system threads (non-deterministic) instead of
      the deterministic engine (default [false]). *)
val run :
  ?native:bool -> config -> (Vyrd.Instrument.ctx -> built) -> Vyrd.Log.t

(** [run_into ~log config builds] runs the workload over one or more data
    structures appending into a caller-supplied log, so listeners (an online
    checker farm, a binary segment writer) can be attached before any event
    flows.  Each thread interleaves random calls across all structures,
    picking one uniformly per op; with a single build the random streams are
    exactly those of {!run}, so seeds keep reproducing the same logs.
    @param native run under system threads instead of the deterministic
      engine (default [false]).
    @raise Invalid_argument on an empty build list. *)
val run_into :
  ?native:bool ->
  log:Vyrd.Log.t ->
  config ->
  (Vyrd.Instrument.ctx -> built) list ->
  unit
