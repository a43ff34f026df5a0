(* Model-based testing for the batched ring buffer.

   A sequential qcheck state machine interprets random operation sequences
   against a trivial functional model (a list plus a closed flag), skipping
   operations that would block without a peer; a native-domains stress test
   then drives the same ring from two producers and one batching consumer
   and checks for loss, duplication, and reordering. *)

open Vyrd
open Vyrd_sched

let qcheck = QCheck_alcotest.to_alcotest

(* --- sequential model --------------------------------------------------- *)

type mop =
  | Push of int
  | PushBatch of int list
  | Pop
  | PopBatch of int
  | Close

let show_mop = function
  | Push x -> Printf.sprintf "Push %d" x
  | PushBatch xs ->
    Printf.sprintf "PushBatch [%s]" (String.concat ";" (List.map string_of_int xs))
  | Pop -> "Pop"
  | PopBatch k -> Printf.sprintf "PopBatch %d" k
  | Close -> "Close"

let gen_ops =
  let open QCheck2.Gen in
  let x = int_range 0 99 in
  list_size (int_range 0 60)
    (frequency
       [
         (4, map (fun v -> Push v) x);
         (3, map (fun vs -> PushBatch vs) (list_size (int_range 0 6) x));
         (4, return Pop);
         (3, map (fun k -> PopBatch k) (int_range 1 6));
         (1, return Close);
       ])

(* Interpret one sequence against ring and model in lockstep.  With no
   concurrent peer, an operation that the ring would block on (push into a
   full open ring, pop from an empty open ring) is skipped — the guarded
   command interpretation of a blocking API. *)
let run_model ops =
  let cap = 4 in
  let r = Ring.create ~capacity:cap (-1) in
  let q = ref [] in
  let closed = ref false in
  let hw = ref 0 in
  let dropped = ref 0 in
  let failure = ref None in
  let check what b = if (not b) && !failure = None then failure := Some what in
  let note_push () = hw := max !hw (List.length !q) in
  List.iter
    (fun op ->
      (match op with
      | Push x ->
        if !closed then begin
          Ring.push r x;
          incr dropped
        end
        else if List.length !q = cap then () (* would block *)
        else begin
          Ring.push r x;
          q := !q @ [ x ];
          note_push ()
        end
      | PushBatch xs ->
        let len = List.length xs in
        if !closed then begin
          Ring.push_batch r (Array.of_list xs);
          dropped := !dropped + len
        end
        else if len > cap - List.length !q then () (* would block *)
        else begin
          Ring.push_batch r (Array.of_list xs);
          q := !q @ xs;
          note_push ()
        end
      | Pop ->
        if !q = [] && not !closed then () (* would block *)
        else begin
          let expect =
            match !q with
            | [] -> None
            | x :: rest ->
              q := rest;
              Some x
          in
          check "pop result" (Ring.pop r = expect)
        end
      | PopBatch k ->
        if !q = [] && not !closed then () (* would block *)
        else begin
          let dest = Array.make k (-1) in
          let n = Ring.pop_batch r dest in
          let exp = min k (List.length !q) in
          check "pop_batch count" (n = exp);
          List.iteri
            (fun j v -> if j < exp then check "pop_batch slot" (dest.(j) = v))
            !q;
          q := List.filteri (fun j _ -> j >= exp) !q
        end
      | Close ->
        Ring.close r;
        closed := true);
      check "length" (Ring.length r = List.length !q);
      check "closed flag" (Ring.closed r = !closed);
      check "high water tracks occupancy" (Ring.high_water r = !hw);
      check "high water within capacity" (Ring.high_water r <= cap);
      check "rejected count" (Ring.rejected r = !dropped);
      check "stall non-negative" (Ring.stall_ns r >= 0))
    ops;
  match !failure with
  | None -> true
  | Some what -> QCheck2.Test.fail_reportf "model mismatch: %s" what

let ring_matches_model =
  qcheck
    (QCheck2.Test.make ~name:"ring == sequential queue model" ~count:1000
       ~print:(fun ops -> String.concat "; " (List.map show_mop ops))
       gen_ops run_model)

(* --- native-domains stress ---------------------------------------------- *)

let test_domains_stress () =
  let cap = 8 in
  let per = 2000 in
  let r = Ring.create ~capacity:cap (-1) in
  let producer p () =
    let rng = Prng.create (42 + p) in
    let i = ref 0 in
    while !i < per do
      let tag k = (p * 1_000_000) + k in
      if Prng.int rng 2 = 0 then begin
        let n = min (per - !i) (1 + Prng.int rng 7) in
        Ring.push_batch r (Array.init n (fun k -> tag (!i + k)));
        i := !i + n
      end
      else begin
        Ring.push r (tag !i);
        incr i
      end
    done
  in
  let consumer =
    Domain.spawn (fun () ->
        let dest = Array.make 5 (-1) in
        let acc = ref [] in
        let rec go () =
          let n = Ring.pop_batch r dest in
          if n > 0 then begin
            for k = 0 to n - 1 do
              acc := dest.(k) :: !acc
            done;
            go ()
          end
        in
        go ();
        List.rev !acc)
  in
  let p1 = Domain.spawn (producer 1) in
  let p2 = Domain.spawn (producer 2) in
  Domain.join p1;
  Domain.join p2;
  Ring.close r;
  let got = Domain.join consumer in
  Alcotest.(check int) "no loss, no duplication" (2 * per) (List.length got);
  let seq p =
    List.filter_map
      (fun v -> if v / 1_000_000 = p then Some (v mod 1_000_000) else None)
      got
  in
  Alcotest.(check (list int)) "producer 1 subsequence in order" (List.init per Fun.id) (seq 1);
  Alcotest.(check (list int)) "producer 2 subsequence in order" (List.init per Fun.id) (seq 2);
  Alcotest.(check bool) "high water within capacity" true (Ring.high_water r <= cap);
  Alcotest.(check int) "nothing rejected" 0 (Ring.rejected r);
  Alcotest.(check bool) "stall non-negative" true (Ring.stall_ns r >= 0)

(* Regression: producer stall time is measured with the monotonicized clock
   ({!Mclock}), so it can never go negative even if the wall clock steps
   backwards mid-wait; and a genuinely blocked producer records some. *)
let test_stall_measured_and_nonnegative () =
  let r = Ring.create ~capacity:1 0 in
  let consumer =
    Domain.spawn (fun () ->
        let rec go acc =
          Unix.sleepf 0.001;
          (* deliberately slow: the producer must block in push *)
          match Ring.pop r with None -> acc | Some _ -> go (acc + 1)
        in
        go 0)
  in
  for i = 1 to 20 do
    Ring.push r i
  done;
  Ring.close r;
  let n = Domain.join consumer in
  Alcotest.(check int) "all consumed" 20 n;
  Alcotest.(check bool) "blocked producer records stall" true (Ring.stall_ns r > 0);
  Alcotest.(check bool) "stall never negative" true (Ring.stall_ns r >= 0)

(* The ring keeps nothing alive: a popped slot is overwritten with the
   ring's [empty] value, whichever of [pop] and [pop_batch] took it. *)
let push_tracked r w i =
  let v = Bytes.make 16 (Char.chr (65 + i)) in
  Weak.set w i (Some v);
  Ring.push r v

let test_ring_keeps_nothing_alive () =
  let r = Ring.create ~capacity:4 Bytes.empty in
  let w = Weak.create 2 in
  push_tracked r w 0;
  push_tracked r w 1;
  Alcotest.(check bool) "pop took one" true (Option.is_some (Ring.pop r));
  let dest = Array.make 4 Bytes.empty in
  Alcotest.(check int) "pop_batch took one" 1 (Ring.pop_batch r dest);
  dest.(0) <- Bytes.empty;
  Gc.full_major ();
  Alcotest.(check bool) "the popped value is freed" false (Weak.check w 0);
  Alcotest.(check bool) "the batch-popped value is freed" false (Weak.check w 1);
  (* the ring is used after the collection, so it was alive during it *)
  Alcotest.(check int) "the ring is empty" 0 (Ring.length r)

let suite =
  [
    ring_matches_model;
    ("domains stress: 2 producers, batching consumer", `Quick, test_domains_stress);
    ("producer stall is monotonic and non-negative", `Quick, test_stall_measured_and_nonnegative);
    ("the ring keeps nothing alive", `Quick, test_ring_keeps_nothing_alive);
  ]
