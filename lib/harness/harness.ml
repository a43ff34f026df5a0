open Vyrd
module Prng = Vyrd_sched.Prng
module Sched = Vyrd_sched.Sched

type built = {
  random_op : Prng.t -> int -> unit;
  daemon : (unit -> unit) option;
}

type config = {
  threads : int;
  ops_per_thread : int;
  key_pool : int;
  key_range : int;
  seed : int;
  log_level : Log.level;
}

let default =
  {
    threads = 4;
    ops_per_thread = 50;
    key_pool = 16;
    key_range = 64;
    seed = 0;
    log_level = `View;
  }

(* The shared key pool of §7.1: every thread draws from a prefix that
   shrinks as its own run progresses. *)
let make_pool config =
  let rng = Prng.create (config.seed * 31 + 17) in
  Array.init (max 2 config.key_pool) (fun _ -> Prng.int rng config.key_range)

let run_into ?(native = false) ~log config builds =
  if builds = [] then invalid_arg "Harness.run_into: no builds";
  let spawn_engine =
    if native then Vyrd_sched.Native.run
    else fun main -> Vyrd_sched.Coop.run ~seed:config.seed ~max_steps:200_000_000 main
  in
  spawn_engine (fun (sched : Sched.t) ->
      let ctx = Instrument.make sched log in
      let bs = Array.of_list (List.map (fun build -> build ctx) builds) in
      let k = Array.length bs in
      let pool = make_pool config in
      let stop = ref false in
      Array.iter
        (fun b ->
          match b.daemon with
          | Some step ->
            sched.Sched.spawn (fun () ->
                while not !stop do
                  step ();
                  sched.Sched.yield ()
                done)
          | None -> ())
        bs;
      let remaining = ref config.threads in
      for t = 1 to config.threads do
        sched.Sched.spawn (fun () ->
            let rng = Prng.create ((config.seed * 7919) + t) in
            let n = config.ops_per_thread in
            for i = 0 to n - 1 do
              (* single-structure runs draw exactly the same stream as they
                 always have: the structure pick only happens when k > 1 *)
              let b = if k = 1 then bs.(0) else bs.(Prng.int rng k) in
              (* shrink the live pool prefix from its full size down to 2 *)
              let live =
                max 2 (Array.length pool - (i * (Array.length pool - 2) / max 1 n))
              in
              let key = pool.(Prng.int rng live) in
              b.random_op rng key
            done;
            decr remaining;
            if !remaining = 0 then stop := true)
      done)

let run ?native config build =
  let log = Log.create ~level:config.log_level () in
  run_into ?native ~log config [ build ];
  log
