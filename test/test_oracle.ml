(* Cross-validation of the fast incremental checker against the reference
   checker (a direct transcription of the paper's definitions). *)

open Vyrd
open Vyrd_sched
open Vyrd_multiset

let spec = Multiset_spec.spec
let view = Multiset_vector.viewdef ~capacity:16

let run_multiset ?(bugs = []) ?(ops = 15) ~seed () =
  let log = Log.create ~level:`View () in
  Coop.run ~seed (fun s ->
      let ctx = Instrument.make s log in
      let ms = Multiset_vector.create ~bugs ~capacity:16 ctx in
      for t = 1 to 4 do
        s.spawn (fun () ->
            let rng = Prng.create (seed + (23 * t)) in
            for _ = 1 to ops do
              let x = Prng.int rng 6 in
              match Prng.int rng 5 with
              | 0 | 1 -> ignore (Multiset_vector.insert ms x)
              | 2 -> ignore (Multiset_vector.insert_pair ms x (x + 1))
              | 3 -> ignore (Multiset_vector.delete ms x)
              | _ -> ignore (Multiset_vector.lookup ms x)
            done)
      done);
  log

let test_agreement_correct_runs () =
  for seed = 0 to 29 do
    let log = run_multiset ~seed () in
    Alcotest.(check bool)
      (Printf.sprintf "io agreement seed %d" seed)
      true
      (Reference.agrees_with_checker log spec);
    Alcotest.(check bool)
      (Printf.sprintf "view agreement seed %d" seed)
      true
      (Reference.agrees_with_checker ~view log spec)
  done

let test_agreement_buggy_runs () =
  for seed = 0 to 29 do
    let log = run_multiset ~bugs:[ Multiset_vector.Racy_find_slot ] ~seed () in
    Alcotest.(check bool)
      (Printf.sprintf "io agreement seed %d" seed)
      true
      (Reference.agrees_with_checker log spec);
    Alcotest.(check bool)
      (Printf.sprintf "view agreement seed %d" seed)
      true
      (Reference.agrees_with_checker ~view log spec)
  done

let test_agreement_on_mutations () =
  (* flip every boolean return, one at a time, and require agreement on
     every mutant (whether it passes or fails) *)
  let log = run_multiset ~seed:5 () in
  let evs = Array.of_list (Log.events log) in
  let mutants = ref 0 in
  Array.iteri
    (fun i ev ->
      match ev with
      | Event.Return { tid; mid; value = Repr.Bool b } ->
        incr mutants;
        let evs' = Array.copy evs in
        evs'.(i) <- Event.Return { tid; mid; value = Repr.Bool (not b) };
        let log' = Log.of_events (Array.to_list evs') in
        Alcotest.(check bool)
          (Printf.sprintf "mutant %d io" i)
          true
          (Reference.agrees_with_checker log' spec);
        Alcotest.(check bool)
          (Printf.sprintf "mutant %d view" i)
          true
          (Reference.agrees_with_checker ~view log' spec)
      | _ -> ())
    evs;
  Alcotest.(check bool) "mutants generated" true (!mutants > 5)

let test_agreement_on_dropped_commits () =
  let log = run_multiset ~seed:7 () in
  let evs = Array.of_list (Log.events log) in
  Array.iteri
    (fun i ev ->
      match ev with
      | Event.Commit _ ->
        let evs' =
          Array.to_list evs |> List.filteri (fun j _ -> j <> i)
        in
        let log' = Log.of_events evs' in
        Alcotest.(check bool)
          (Printf.sprintf "dropped commit %d" i)
          true
          (Reference.agrees_with_checker ~view log' spec)
      | _ -> ())
    evs

let test_agreement_on_btree () =
  let open Vyrd_boxwood in
  for seed = 0 to 9 do
    let log = Log.create ~level:`View () in
    Coop.run ~seed (fun s ->
        let ctx = Instrument.make s log in
        let tree = Blink_tree.create ~order:2 (Bnode.mem_store ctx) ctx in
        let stop = ref false in
        s.spawn (fun () ->
            while not !stop do
              Blink_tree.compress tree;
              s.yield ()
            done);
        let remaining = ref 3 in
        for t = 1 to 3 do
          s.spawn (fun () ->
              let rng = Prng.create (seed + (11 * t)) in
              for _ = 1 to 15 do
                let k = Prng.int rng 8 in
                match Prng.int rng 4 with
                | 0 | 1 -> Blink_tree.insert tree k (Prng.int rng 50)
                | 2 -> ignore (Blink_tree.delete tree k)
                | _ -> ignore (Blink_tree.lookup tree k)
              done;
              decr remaining;
              if !remaining = 0 then stop := true)
        done);
    Alcotest.(check bool)
      (Printf.sprintf "btree agreement seed %d" seed)
      true
      (Reference.agrees_with_checker ~view:Blink_tree.viewdef log Blink_tree.spec)
  done

let test_agreement_on_harness_subjects () =
  (* agreement on harness-generated logs for the remaining subjects *)
  let open Vyrd_harness in
  List.iter
    (fun (subj : Subjects.t) ->
      for seed = 0 to 4 do
        let cfg =
          { Harness.default with threads = 3; ops_per_thread = 15; key_pool = 8;
            key_range = 12; seed }
        in
        let log = Harness.run cfg (subj.build ~bug:false) in
        Alcotest.(check bool)
          (Printf.sprintf "%s correct seed %d" subj.name seed)
          true
          (Reference.agrees_with_checker ~view:subj.view log subj.spec);
        let blog = Harness.run cfg (subj.build ~bug:true) in
        Alcotest.(check bool)
          (Printf.sprintf "%s buggy seed %d" subj.name seed)
          true
          (Reference.agrees_with_checker ~view:subj.view blog subj.spec)
      done)
    [ Subjects.cache; Subjects.scanfs; Subjects.string_buffer; Subjects.jvector ]

(* --- long observer windows, checkpoints and state retention --------------- *)

(* A [count x] observer on thread 99 called before the first event and
   returning [v] right after commit [close_after] (or at the end): its
   window pins every specification state from the first on, past the
   checker's pruning, until it returns. *)
let hold_open evs ~x ~v ~close_after =
  let seen = ref 0 in
  let cut = ref (Array.length evs) in
  Array.iteri
    (fun i ev ->
      match ev with
      | Event.Commit _ ->
        incr seen;
        if !seen = close_after && !cut = Array.length evs then cut := i + 1
      | _ -> ())
    evs;
  Array.concat
    [ [| Event.Call { tid = 99; mid = "count"; args = [ Repr.Int x ] } |];
      Array.sub evs 0 !cut;
      [| Event.Return { tid = 99; mid = "count"; value = Repr.Int v } |];
      Array.sub evs !cut (Array.length evs - !cut) ]

let commits evs =
  Array.fold_left (fun n ev -> match ev with Event.Commit _ -> n + 1 | _ -> n) 0 evs

(* [pairs] pairs of overlapping operations on a capacity-3 multiset vector:
   two threads call, commit in call order, and return in the opposite
   order, cycling key 0 through multiplicities 0,1,2,3,2,1,0,...  A
   [lookup 0] on thread 4 spans every third pair, so short observer windows
   open and close under the long one.  Written at `View level with the
   vector's own variable names, so [view] applies. *)
let long_cycle ~pairs =
  let evs = ref [] in
  let emit e = evs := e :: !evs in
  let mult = ref 0 and rising = ref true in
  let op tid =
    let slot, mid, writes, ret =
      if !rising then begin
        let slot = !mult in
        incr mult;
        if !mult = 3 then rising := false;
        ( slot, "insert",
          [ ("A[" ^ string_of_int slot ^ "].elt", Repr.Int 0);
            ("A[" ^ string_of_int slot ^ "].valid", Repr.Bool true) ],
          Repr.success )
      end
      else begin
        decr mult;
        if !mult = 0 then rising := true;
        (!mult, "delete", [ ("A[" ^ string_of_int !mult ^ "].valid", Repr.Bool false) ], Repr.Bool true)
      end
    in
    ignore slot;
    ( Event.Call { tid; mid; args = [ Repr.Int 0 ] },
      List.map (fun (var, value) -> Event.Write { tid; var; value }) writes @ [ Event.Commit { tid } ],
      Event.Return { tid; mid; value = ret } )
  in
  for i = 0 to pairs - 1 do
    let a = 1 + (i mod 3) in
    let b = 1 + ((i + 1) mod 3) in
    if i mod 3 = 0 then emit (Event.Call { tid = 4; mid = "lookup"; args = [ Repr.Int 0 ] });
    let call_a, body_a, ret_a = op a in
    let call_b, body_b, ret_b = op b in
    emit call_a;
    emit call_b;
    List.iter emit body_a;
    List.iter emit body_b;
    emit ret_b;
    emit ret_a;
    if i mod 3 = 0 then emit (Event.Return { tid = 4; mid = "lookup"; value = Repr.Bool true })
  done;
  Array.of_list (List.rev !evs)

let long_base = lazy (long_cycle ~pairs:1100)

let long_logs () =
  let base = Lazy.force long_base in
  List.concat_map
    (fun (x, v) ->
      List.map
        (fun close_after -> Log.of_events (Array.to_list (hold_open base ~x ~v ~close_after)))
        [ 2100; max_int ])
    [ (0, 0); (0, 3); (0, 4); (1, 0); (1, 1) ]

let test_long_windows () =
  let n = commits (Lazy.force long_base) in
  Alcotest.(check bool) (Printf.sprintf "the held window spans %d > 2100 commits" n) true
    (n > 2100);
  List.iteri
    (fun i log ->
      Alcotest.(check bool)
        (Printf.sprintf "long window %d: io verdict and index" i)
        true
        (Reference.agrees_with_checker_indexed log spec);
      if i < 2 then
        Alcotest.(check bool)
          (Printf.sprintf "long window %d: view verdict and index" i)
          true
          (Reference.agrees_with_checker_indexed ~view log spec))
    (long_logs ())

(* Verdict and first-violation index of a run that snapshots the checker
   every 97 events, through the textual checkpoint form, and continues on
   a fresh checker restored from it. *)
let restarted ?view log =
  let mode = if view = None then `Io else `View in
  let fresh () = Checker.create ~mode ?view spec in
  let c = ref (fresh ()) in
  let fail_at = ref None in
  Array.iteri
    (fun i ev ->
      (if i > 0 && i mod 97 = 0 then
         match Checker.snapshot !c with
         | Some st ->
           let c' = fresh () in
           Checker.restore c' (Repr.of_text (Repr.to_text st));
           c := c'
         | None -> ());
      match Checker.feed !c ev with
      | Some _ when !fail_at = None -> fail_at := Some i
      | _ -> ())
    (Log.snapshot log);
  (Report.tag (Checker.report !c), !fail_at)

let straight ?view log =
  let mode = if view = None then `Io else `View in
  let r, idx = Checker.check_indexed ~mode ?view log spec in
  (Report.tag r, idx)

let test_checkpoints_every_97 () =
  let logs =
    long_logs ()
    @ List.init 10 (fun seed -> run_multiset ~seed ())
    @ List.init 10 (fun seed -> run_multiset ~bugs:[ Multiset_vector.Racy_find_slot ] ~seed ())
  in
  List.iteri
    (fun i log ->
      let name = Printf.sprintf "log %d" i in
      Alcotest.(check (pair string (option int))) (name ^ ": io") (straight log) (restarted log);
      Alcotest.(check (pair string (option int)))
        (name ^ ": view") (straight ~view log) (restarted ~view log))
    logs

(* A counter whose every state is a fresh block registered in [alive], so
   a test can ask which states the checker still keeps reachable. *)
module Weak_counter = struct
  type state = { n : int }

  let alive : state Weak.t = Weak.create 1024
  let name = "weak-counter"
  let init () = { n = 0 }

  let kind = function
    | "inc" -> Spec.Mutator
    | "get" -> Spec.Observer
    | m -> invalid_arg ("weak-counter: unknown method " ^ m)

  type meth = string
  let meth = Spec.by_name kind

  let apply st ~mid:_ ~args:_ ~ret:_ =
    let s = { n = st.n + 1 } in
    Weak.set alive s.n (Some s);
    Ok s

  let observe st ~mid:_ ~args:_ ~ret = Repr.equal ret (Repr.Int st.n)
  let view st = Repr.Int st.n
  let snapshot st = st
  let save _ = None
  let load _ = invalid_arg "weak-counter: no checkpoints"
end

let test_state_retention_bound () =
  let checker = Checker.create ~mode:`Io (module Weak_counter : Spec.S) in
  (* A holds [get] open from commit [opened]; B and C increment around it *)
  let committed = ref 0 in
  let open_since = ref None in
  let inc tid =
    List.iter
      (fun ev -> ignore (Checker.feed checker ev))
      [ Event.Call { tid; mid = "inc"; args = [] }; Event.Commit { tid };
        Event.Return { tid; mid = "inc"; value = Repr.Unit } ];
    incr committed
  in
  let expect_only_live what =
    let lowest = Option.value !open_since ~default:!committed in
    Gc.full_major ();
    for i = 1 to !committed do
      match Weak.get Weak_counter.alive i with
      | Some _ when i < lowest ->
        Alcotest.failf "%s: state %d reachable below the lowest live window %d" what i lowest
      | _ -> ()
    done;
    match Checker.violation checker with
    | Some _ -> Alcotest.failf "%s: unexpected violation" what
    | None -> ()
  in
  for round = 0 to 9 do
    for _ = 1 to 30 do
      inc 2
    done;
    expect_only_live (Printf.sprintf "round %d, no open window" round);
    ignore (Checker.feed checker (Event.Call { tid = 1; mid = "get"; args = [] }));
    open_since := Some !committed;
    let value = !committed + 7 in
    for _ = 1 to 20 do
      inc 3
    done;
    expect_only_live (Printf.sprintf "round %d, window open" round);
    (* returns the value of a state in the middle of its window *)
    ignore (Checker.feed checker (Event.Return { tid = 1; mid = "get"; value = Repr.Int value }));
    open_since := None;
    expect_only_live (Printf.sprintf "round %d, window closed" round)
  done;
  Alcotest.(check bool) "every method checked" true
    (Checker.methods_checked checker = !committed + 10)

let suite =
  [
    ("oracle agrees on correct runs", `Quick, test_agreement_correct_runs);
    ("oracle agrees on buggy runs", `Quick, test_agreement_buggy_runs);
    ("oracle agrees on return mutants", `Slow, test_agreement_on_mutations);
    ("oracle agrees on dropped commits", `Quick, test_agreement_on_dropped_commits);
    ("oracle agrees on blink tree", `Quick, test_agreement_on_btree);
    ("oracle agrees on harness subjects", `Slow, test_agreement_on_harness_subjects);
    ("oracle agrees across 2000-commit windows", `Quick, test_long_windows);
    ("checkpoint every 97 events = straight run", `Quick, test_checkpoints_every_97);
    ("checker keeps only states a live window can test", `Quick, test_state_retention_bound);
  ]
