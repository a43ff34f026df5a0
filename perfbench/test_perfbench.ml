(* The benchmark's own arithmetic: percentile selection and the ten-beyond
   rule, span self time, VmHWM parsing, and unit seed derivation. *)

open Perfbench

let failures = ref 0

let check name ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n" name
  end

let percentiles () =
  let a = Array.init 10 (fun i -> float_of_int (i + 1)) in
  check "p50 of 1..10 is 5" (Stats.percentile a 0.5 = 5.);
  check "p90 of 1..10 is 9" (Stats.percentile a 0.9 = 9.);
  check "p100 of 1..10 is 10" (Stats.percentile a 1.0 = 10.);
  check "p0 of 1..10 is 1" (Stats.percentile a 0. = 1.);
  check "p50 of one sample" (Stats.percentile [| 7. |] 0.5 = 7.);
  check "median sorts its input" (Stats.median [ 3.; 1.; 2. ] = 2.);
  (* ten samples beyond the percentile *)
  check "100 samples: 10 beyond p90" (Stats.beyond 100 0.9 = 10);
  check "99 samples: 9 beyond p90" (Stats.beyond 99 0.9 = 9);
  check "20 samples: 10 beyond p50" (Stats.beyond 20 0.5 = 10);
  check "1000 samples: 10 beyond p99" (Stats.beyond 1000 0.99 = 10)

let self_time () =
  check "no children" (Stats.self_time ~start:0 ~stop:100 [] = 100);
  check "disjoint children"
    (Stats.self_time ~start:0 ~stop:100 [ (10, 20); (50, 70) ] = 70);
  check "overlapping children count once"
    (Stats.self_time ~start:0 ~stop:100 [ (10, 30); (20, 50); (70, 80) ] = 50);
  check "children are clipped to the parent"
    (Stats.self_time ~start:0 ~stop:100 [ (-20, 10); (90, 130) ] = 80);
  check "nested child inside child"
    (Stats.self_time ~start:0 ~stop:100 [ (10, 60); (20, 30) ] = 50);
  check "union of nothing" (Stats.union_length [] = 0);
  (* spans recorded with a fake clock: parent links and per-name self time *)
  let t = ref 0 in
  let clock () =
    t := !t + 10;
    !t
  in
  let tr = Trace.create ~clock () in
  Trace.set_unit tr 7;
  Trace.with_span tr "outer" (fun () ->
      Trace.with_span tr "inner" ignore;
      Trace.with_span tr "inner" ignore);
  let spans = Trace.spans tr in
  let outer = List.find (fun (s : Trace.span) -> s.name = "outer") spans in
  check "three spans" (List.length spans = 3);
  check "inner spans point at outer"
    (List.for_all
       (fun (s : Trace.span) -> s.name = "outer" || s.parent = outer.id)
       spans);
  check "outer is a root" (outer.parent = -1);
  check "unit id recorded" (List.for_all (fun (s : Trace.span) -> s.unit_id = 7) spans);
  let selfs = Trace.self_times spans in
  (* outer 10..60, inner 20..30 and 40..50 *)
  check "outer self time" (Trace.self_ns selfs "outer" = 30);
  check "inner self time" (Trace.self_ns selfs "inner" = 20);
  check "durations" (List.sort compare (Trace.durations spans "inner") = [ 10; 10 ]);
  check "span is bare without a tracer" (Trace.span None "x" (fun () -> 42) = 42)

let vmhwm () =
  let status =
    "Name:\tmain.exe\nVmPeak:\t  812344 kB\nVmHWM:\t   72784 kB\nVmRSS:\t   70012 kB\n"
  in
  check "VmHWM parsed" (Stats.vmhwm_kb status = Some 72784);
  check "VmHWM missing" (Stats.vmhwm_kb "VmRSS:\t 1 kB\n" = None);
  check "VmHWM malformed" (Stats.vmhwm_kb "VmHWM:\t lots kB\n" = None);
  check "VmHWM as the last line without newline"
    (Stats.vmhwm_kb "VmPeak:\t 9 kB\nVmHWM: 12 kB" = Some 12)

let unit_seeds () =
  let s ~seed ~index ~attempt = Stats.unit_seed ~seed ~index ~attempt in
  (* pinned values: a changed derivation changes every workload's inputs *)
  check "pinned seed 1/0/0" (s ~seed:1 ~index:0 ~attempt:0 = 680472955);
  check "pinned seed 1/5/0" (s ~seed:1 ~index:5 ~attempt:0 = 483261402);
  check "pinned seed 42/3/2" (s ~seed:42 ~index:3 ~attempt:2 = 658454756);
  check "same inputs, same seed" (s ~seed:9 ~index:4 ~attempt:1 = s ~seed:9 ~index:4 ~attempt:1);
  let seeds = List.init 1000 (fun index -> s ~seed:1 ~index ~attempt:0) in
  check "1000 units, 1000 distinct seeds"
    (List.length (List.sort_uniq compare seeds) = 1000);
  check "seeds fit in 30 bits" (List.for_all (fun x -> x >= 0 && x < 1 lsl 30) seeds);
  check "the workload seed matters"
    (s ~seed:1 ~index:0 ~attempt:0 <> s ~seed:2 ~index:0 ~attempt:0);
  check "the attempt matters" (s ~seed:1 ~index:0 ~attempt:0 <> s ~seed:1 ~index:0 ~attempt:1)

let () =
  percentiles ();
  self_time ();
  vmhwm ();
  unit_seeds ();
  if !failures > 0 then begin
    Printf.printf "%d perfbench arithmetic checks failed\n" !failures;
    exit 1
  end
