(* Robustness and mutation testing for the checker.

   - robustness: arbitrary event streams never crash the checker; it either
     passes or reports a structured violation;
   - soundness-by-construction: randomly generated spec-conformant serial
     logs always pass;
   - mutation: corrupting one event of a passing concurrent log (flipping a
     return value, dropping a commit, flipping a logged write) must surface
     as a violation. *)

open Vyrd
open Vyrd_sched
open Vyrd_multiset

let qcheck t = QCheck_alcotest.to_alcotest t
let spec = Multiset_spec.spec
let view = Multiset_vector.viewdef ~capacity:16

(* --- robustness --------------------------------------------------------- *)

let arbitrary_event_gen =
  let open QCheck2.Gen in
  let tid = int_range 0 5 in
  let mid =
    oneofl [ "insert"; "insert_pair"; "delete"; "lookup"; "count"; "compress"; "bogus" ]
  in
  let value =
    oneof
      [
        return Repr.Unit;
        map (fun b -> Repr.Bool b) bool;
        map (fun i -> Repr.Int i) (int_range 0 9);
        return Repr.success;
        return Repr.failure;
      ]
  in
  let var = oneofl [ "A[0].elt"; "A[0].valid"; "A[1].elt"; "A[1].valid"; "x" ] in
  oneof
    [
      map3 (fun tid mid args -> Event.Call { tid; mid; args }) tid mid
        (list_size (int_range 0 2) value);
      map3 (fun tid mid value -> Event.Return { tid; mid; value }) tid mid value;
      map (fun tid -> Event.Commit { tid }) tid;
      map3 (fun tid var value -> Event.Write { tid; var; value }) tid var value;
      map (fun tid -> Event.Block_begin { tid }) tid;
      map (fun tid -> Event.Block_end { tid }) tid;
    ]

let checker_never_crashes =
  qcheck
    (QCheck2.Test.make ~name:"checker total on arbitrary event streams" ~count:300
       QCheck2.Gen.(list_size (int_range 0 60) arbitrary_event_gen)
       (fun evs ->
         let log = Log.of_events evs in
         let io = Checker.check ~mode:`Io log spec in
         let vw = Checker.check ~mode:`View ~view log spec in
         (* any structured outcome is fine; crashing is not *)
         ignore (Report.tag io);
         ignore (Report.tag vw);
         true))

(* --- spec-conformant serial logs pass ------------------------------------ *)

let serial_log_gen =
  let open QCheck2.Gen in
  let* n = int_range 0 40 in
  let* choices = list_size (return n) (pair (int_range 0 5) (int_range 0 6)) in
  return
    (let bag = Hashtbl.create 8 in
     let multiplicity x = Option.value ~default:0 (Hashtbl.find_opt bag x) in
     let events = ref [] in
     let emit e = events := e :: !events in
     List.iter
       (fun (op, x) ->
         match op with
         | 0 | 1 ->
           emit (Event.Call { tid = 0; mid = "insert"; args = [ Repr.Int x ] });
           emit (Event.Commit { tid = 0 });
           Hashtbl.replace bag x (multiplicity x + 1);
           emit (Event.Return { tid = 0; mid = "insert"; value = Repr.success })
         | 2 ->
           emit
             (Event.Call
                { tid = 0; mid = "insert_pair"; args = [ Repr.Int x; Repr.Int (x + 1) ] });
           emit (Event.Commit { tid = 0 });
           Hashtbl.replace bag x (multiplicity x + 1);
           Hashtbl.replace bag (x + 1) (multiplicity (x + 1) + 1);
           emit (Event.Return { tid = 0; mid = "insert_pair"; value = Repr.success })
         | 3 ->
           emit (Event.Call { tid = 0; mid = "delete"; args = [ Repr.Int x ] });
           let present = multiplicity x > 0 in
           if present then begin
             emit (Event.Commit { tid = 0 });
             Hashtbl.replace bag x (multiplicity x - 1)
           end;
           emit (Event.Return { tid = 0; mid = "delete"; value = Repr.Bool present })
         | 4 ->
           emit (Event.Call { tid = 0; mid = "lookup"; args = [ Repr.Int x ] });
           emit
             (Event.Return
                { tid = 0; mid = "lookup"; value = Repr.Bool (multiplicity x > 0) })
         | _ ->
           emit (Event.Call { tid = 0; mid = "count"; args = [ Repr.Int x ] });
           emit
             (Event.Return { tid = 0; mid = "count"; value = Repr.Int (multiplicity x) }))
       choices;
     List.rev !events)

let conformant_serial_logs_pass =
  qcheck
    (QCheck2.Test.make ~name:"spec-conformant serial logs pass" ~count:200
       serial_log_gen (fun evs ->
         Report.is_pass (Checker.check ~mode:`Io (Log.of_events evs) spec)))

(* --- mutations of a passing concurrent log ------------------------------- *)

let passing_log seed =
  let log = Log.create ~level:`View () in
  Coop.run ~seed (fun s ->
      let ctx = Instrument.make s log in
      let ms = Multiset_vector.create ~capacity:16 ctx in
      for t = 1 to 3 do
        s.spawn (fun () ->
            let rng = Prng.create (seed + (41 * t)) in
            for _ = 1 to 12 do
              let x = Prng.int rng 6 in
              match Prng.int rng 4 with
              | 0 | 1 -> ignore (Multiset_vector.insert ms x)
              | 2 -> ignore (Multiset_vector.delete ms x)
              | _ -> ignore (Multiset_vector.lookup ms x)
            done)
      done);
  log

(* replace the first event satisfying [pick] using [subst]; None if absent *)
let mutate_first evs ~pick ~subst =
  let rec go acc = function
    | [] -> None
    | ev :: rest when pick ev -> Some (List.rev_append acc (subst ev :: rest))
    | ev :: rest -> go (ev :: acc) rest
  in
  go [] evs

let drop_first evs ~pick =
  let rec go acc = function
    | [] -> None
    | ev :: rest when pick ev -> Some (List.rev_append acc rest)
    | ev :: rest -> go (ev :: acc) rest
  in
  go [] evs

let test_flipped_delete_return_fails () =
  let tested = ref 0 in
  for seed = 0 to 19 do
    let evs = Log.events (passing_log seed) in
    match
      mutate_first evs
        ~pick:(function
          | Event.Return { mid = "delete"; value = Repr.Bool true; _ } -> true
          | _ -> false)
        ~subst:(function
          | Event.Return { tid; mid; _ } ->
            Event.Return { tid; mid; value = Repr.Bool false }
          | ev -> ev)
    with
    | None -> ()
    | Some evs' ->
      incr tested;
      let r = Checker.check ~mode:`Io (Log.of_events evs') spec in
      if Report.is_pass r then
        Alcotest.failf "seed %d: flipped delete return not detected" seed
  done;
  Alcotest.(check bool) "mutation applied somewhere" true (!tested > 5)

let test_dropped_commit_fails () =
  let tested = ref 0 in
  for seed = 0 to 19 do
    let evs = Log.events (passing_log seed) in
    (* find the commit of a successful insert: the commit immediately
       followed (for that thread) by "ret insert success" *)
    let arr = Array.of_list evs in
    let target = ref None in
    Array.iteri
      (fun i ev ->
        match ev with
        | Event.Commit { tid } when !target = None ->
          let rec scan j =
            if j >= Array.length arr then ()
            else
              match arr.(j) with
              | Event.Return { tid = t'; mid = "insert"; value }
                when t' = tid && Repr.is_success value -> target := Some i
              | Event.Return { tid = t'; _ } when t' = tid -> ()
              | _ -> scan (j + 1)
          in
          scan (i + 1)
        | _ -> ())
      arr;
    match !target with
    | None -> ()
    | Some i ->
      incr tested;
      let evs' = List.filteri (fun j _ -> j <> i) evs in
      let r = Checker.check ~mode:`Io (Log.of_events evs') spec in
      if Report.is_pass r then
        Alcotest.failf "seed %d: dropped insert commit not detected" seed
  done;
  Alcotest.(check bool) "mutation applied somewhere" true (!tested > 5)

let test_corrupted_write_fails_view () =
  let tested = ref 0 in
  for seed = 0 to 19 do
    let evs = Log.events (passing_log seed) in
    match
      mutate_first evs
        ~pick:(function
          | Event.Write { var; value = Repr.Bool true; _ } ->
            String.length var > 6
            && String.sub var (String.length var - 5) 5 = "valid"
          | _ -> false)
        ~subst:(function
          | Event.Write { tid; var; _ } ->
            Event.Write { tid; var; value = Repr.Bool false }
          | ev -> ev)
    with
    | None -> ()
    | Some evs' ->
      incr tested;
      let r = Checker.check ~mode:`View ~view (Log.of_events evs') spec in
      if Report.is_pass r then
        Alcotest.failf "seed %d: corrupted valid-bit write not detected" seed
  done;
  Alcotest.(check bool) "mutation applied somewhere" true (!tested > 5)

let test_duplicated_commit_ill_formed () =
  let evs = Log.events (passing_log 0) in
  let arr = Array.of_list evs in
  let i =
    let rec find j =
      match arr.(j) with Event.Commit _ -> j | _ -> find (j + 1)
    in
    find 0
  in
  let evs' =
    List.concat (List.mapi (fun j ev -> if j = i then [ ev; ev ] else [ ev ]) evs)
  in
  Alcotest.(check string) "double commit is ill-formed" "ill-formed"
    (Report.tag (Checker.check ~mode:`Io (Log.of_events evs') spec))

(* View-mode checking subsumes I/O-mode checking: everything the I/O
   checker validates is also validated in view mode, so an I/O failure
   implies a view failure on the same log. *)
let view_subsumes_io =
  qcheck
    (QCheck2.Test.make ~name:"view refinement subsumes io refinement" ~count:150
       QCheck2.Gen.(list_size (int_range 0 60) arbitrary_event_gen)
       (fun evs ->
         let log = Log.of_events evs in
         let io = Checker.check ~mode:`Io log spec in
         let vw = Checker.check ~mode:`View ~view log spec in
         Report.is_pass io || not (Report.is_pass vw)))

(* the timeline renderer must be total on anything the checker accepts, at
   any positive column width *)
let timeline_total =
  qcheck
    (QCheck2.Test.make ~name:"timeline renderer total" ~count:100
       QCheck2.Gen.(pair (list_size (int_range 0 40) arbitrary_event_gen) (int_range 1 30))
       (fun (evs, col_width) ->
         let log = Log.of_events evs in
         let rendered =
           Timeline.render
             ~options:{ Timeline.default with show_writes = true; col_width }
             log
         in
         let w = Timeline.witness log in
         String.length rendered >= 0 && String.length w >= 0))

let suite =
  [
    checker_never_crashes;
    conformant_serial_logs_pass;
    ("mutation: flipped delete return", `Quick, test_flipped_delete_return_fails);
    ("mutation: dropped insert commit", `Quick, test_dropped_commit_fails);
    ("mutation: corrupted valid write", `Quick, test_corrupted_write_fails_view);
    ("mutation: duplicated commit", `Quick, test_duplicated_commit_ill_formed);
    view_subsumes_io;
    timeline_total;
  ]
