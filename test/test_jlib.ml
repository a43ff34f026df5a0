(* Tests for the java.util.Vector / StringBuffer models and their published
   concurrency bugs (paper §7.4.1). *)

open Vyrd
open Vyrd_sched
open Vyrd_jlib

let vec_capacity = 32

let run_vector ?(bugs = []) ~seed ~threads ~ops () =
  let log = Log.create ~level:`View () in
  Coop.run ~seed (fun s ->
      let ctx = Instrument.make s log in
      let v = Vector.create ~bugs ~capacity:vec_capacity ctx in
      for t = 1 to threads do
        s.spawn (fun () ->
            let rng = Prng.create ((seed * 613) + t) in
            for _ = 1 to ops do
              let x = Prng.int rng 6 in
              try
                match Prng.int rng 14 with
                | 0 | 1 | 2 -> ignore (Vector.add v x)
                | 3 | 4 -> ignore (Vector.remove_last v)
                | 5 -> ignore (Vector.get v (Prng.int rng 8))
                | 6 -> ignore (Vector.size v)
                | 7 -> ignore (Vector.contains v x)
                | 8 -> ignore (Vector.insert_at v (Prng.int rng 6) x)
                | 9 -> ignore (Vector.remove_at v (Prng.int rng 6))
                | 10 -> ignore (Vector.set v (Prng.int rng 6) x)
                | 11 -> ignore (Vector.index_of v x)
                | 12 -> ignore (Vector.is_empty v)
                | _ -> ignore (Vector.last_index_of v x)
              with Vector.Index_out_of_bounds -> ()
            done)
      done);
  log

let sb_buffers = 3
let sb_capacity = 64

let run_sb ?(bugs = []) ~seed ~threads ~ops () =
  let log = Log.create ~level:`View () in
  Coop.run ~seed (fun s ->
      let ctx = Instrument.make s log in
      let p = String_buffer.create ~bugs ~buffers:sb_buffers ~buf_capacity:sb_capacity ctx in
      for t = 1 to threads do
        s.spawn (fun () ->
            let rng = Prng.create ((seed * 389) + t) in
            for _ = 1 to ops do
              let b = Prng.int rng sb_buffers in
              match Prng.int rng 14 with
              | 0 | 1 | 2 ->
                ignore
                  (String_buffer.append_str p b (String.make (1 + Prng.int rng 3) 'a'))
              | 3 | 4 | 5 ->
                ignore (String_buffer.append_sb p ~dst:b ~src:(Prng.int rng sb_buffers))
              | 6 -> ignore (String_buffer.truncate p b (Prng.int rng 4))
              | 7 | 8 -> ignore (String_buffer.to_string p b)
              | 9 -> ignore (String_buffer.set_char p b (Prng.int rng 5) 'z')
              | 10 ->
                ignore
                  (String_buffer.delete_range p b ~pos:(Prng.int rng 4)
                     ~len:(Prng.int rng 3))
              | 11 -> String_buffer.reverse p b
              | 12 -> ignore (String_buffer.char_at p b (Prng.int rng 6))
              | _ -> ignore (String_buffer.length p b)
            done)
      done);
  log

let vec_view = Vector.viewdef ~capacity:vec_capacity
let sb_view = String_buffer.viewdef ~buffers:sb_buffers ~buf_capacity:sb_capacity
let sb_spec = String_buffer.spec ~buffers:sb_buffers

let assert_pass what report =
  if not (Report.is_pass report) then
    Alcotest.failf "%s: expected pass, got %a" what Report.pp report

let test_vector_correct () =
  for seed = 0 to 14 do
    let log = run_vector ~seed ~threads:5 ~ops:30 () in
    assert_pass
      (Printf.sprintf "vector io seed %d" seed)
      (Checker.check ~mode:`Io log Vector.spec);
    assert_pass
      (Printf.sprintf "vector view seed %d" seed)
      (Checker.check ~mode:`View ~view:vec_view log Vector.spec)
  done

let test_sb_correct () =
  for seed = 0 to 14 do
    let log = run_sb ~seed ~threads:4 ~ops:20 () in
    assert_pass
      (Printf.sprintf "sb io seed %d" seed)
      (Checker.check ~mode:`Io log sb_spec);
    assert_pass
      (Printf.sprintf "sb view seed %d" seed)
      (Checker.check ~mode:`View ~view:sb_view log sb_spec)
  done

let find_failing ~check ~run =
  let rec go seed =
    if seed > 400 then None
    else
      let report = check (run ~seed) in
      if Report.is_pass report then go (seed + 1) else Some (seed, report)
  in
  go 0

let test_vector_bug_detected () =
  match
    find_failing
      ~check:(fun log -> Checker.check ~mode:`Io log Vector.spec)
      ~run:(fun ~seed ->
        run_vector ~bugs:[ Vector.Non_atomic_last_index_of ] ~seed ~threads:6 ~ops:30 ())
  with
  | None -> Alcotest.fail "vector lastIndexOf bug never detected"
  | Some (_, report) -> (
    match report.Report.outcome with
    | Report.Fail (Report.Observer_violation { exec; _ }) ->
      Alcotest.(check string) "observer is last_index_of" "last_index_of" exec.e_mid
    | _ -> Alcotest.failf "unexpected %a" Report.pp report)

let test_vector_bug_view_no_better () =
  (* Paper §7.5: the Vector error lives in an observer and does not corrupt
     state, so view refinement detects it no earlier than I/O refinement. *)
  let both = ref 0 in
  for seed = 0 to 150 do
    let log =
      run_vector ~bugs:[ Vector.Non_atomic_last_index_of ] ~seed ~threads:6 ~ops:30 ()
    in
    let io = Checker.check ~mode:`Io log Vector.spec in
    let view = Checker.check ~mode:`View ~view:vec_view log Vector.spec in
    if not (Report.is_pass io) then begin
      incr both;
      Alcotest.(check int)
        (Printf.sprintf "same detection point, seed %d" seed)
        io.Report.stats.methods_checked view.Report.stats.methods_checked
    end
  done;
  Alcotest.(check bool) "bug triggered somewhere" true (!both > 0)

let test_sb_bug_detected_by_view () =
  match
    find_failing
      ~check:(fun log -> Checker.check ~mode:`View ~view:sb_view log sb_spec)
      ~run:(fun ~seed ->
        run_sb ~bugs:[ String_buffer.Unprotected_append_source ] ~seed ~threads:5
          ~ops:25 ())
  with
  | None -> Alcotest.fail "string buffer append bug never detected"
  | Some (_, report) -> (
    match report.Report.outcome with
    | Report.Fail (Report.View_violation { exec; _ }) ->
      Alcotest.(check string) "mutator is append_sb" "append_sb" exec.e_mid
    | Report.Fail _ -> ()  (* an I/O-level detection is also acceptable *)
    | Report.Pass -> Alcotest.fail "unreachable")

let test_sb_view_detects_earlier () =
  let io_total = ref 0 and view_total = ref 0 and hits = ref 0 in
  for seed = 0 to 200 do
    let log =
      run_sb ~bugs:[ String_buffer.Unprotected_append_source ] ~seed ~threads:5
        ~ops:25 ()
    in
    let io = Checker.check ~mode:`Io log sb_spec in
    let view = Checker.check ~mode:`View ~view:sb_view log sb_spec in
    if (not (Report.is_pass io)) && not (Report.is_pass view) then begin
      incr hits;
      io_total := !io_total + io.Report.stats.methods_checked;
      view_total := !view_total + view.Report.stats.methods_checked
    end
  done;
  Alcotest.(check bool) "bug triggered on several seeds" true (!hits > 2);
  Alcotest.(check bool)
    (Printf.sprintf "view (%d) <= io (%d)" !view_total !io_total)
    true
    (!view_total <= !io_total)

(* sequential sanity ---------------------------------------------------- *)

let test_vector_sequential_semantics () =
  let log = Log.create ~level:`View () in
  Coop.run (fun s ->
      let ctx = Instrument.make s log in
      let v = Vector.create ~capacity:8 ctx in
      Alcotest.(check bool) "add" true (Vector.add v 1 = Vector.Success);
      ignore (Vector.add v 2);
      ignore (Vector.add v 1);
      Alcotest.(check int) "size" 3 (Vector.size v);
      Alcotest.(check (option int)) "get 1" (Some 2) (Vector.get v 1);
      Alcotest.(check (option int)) "get oob" None (Vector.get v 5);
      Alcotest.(check bool) "contains" true (Vector.contains v 2);
      Alcotest.(check int) "last_index_of" 2 (Vector.last_index_of v 1);
      Alcotest.(check bool) "remove" true (Vector.remove_last v);
      Alcotest.(check int) "last_index_of after remove" 0 (Vector.last_index_of v 1);
      Alcotest.(check (list int)) "contents" [ 1; 2 ] (Vector.unsafe_contents v);
      Alcotest.(check bool) "insert_at" true (Vector.insert_at v 1 9 = Vector.Success);
      Alcotest.(check (list int)) "after insert_at" [ 1; 9; 2 ] (Vector.unsafe_contents v);
      Alcotest.(check bool) "insert_at oob" true
        (Vector.insert_at v 9 9 = Vector.Failure);
      Alcotest.(check bool) "set" true (Vector.set v 0 7);
      Alcotest.(check bool) "set oob" false (Vector.set v 5 7);
      Alcotest.(check int) "index_of" 0 (Vector.index_of v 7);
      Alcotest.(check int) "index_of absent" (-1) (Vector.index_of v 42);
      Alcotest.(check bool) "remove_at" true (Vector.remove_at v 1);
      Alcotest.(check (list int)) "after remove_at" [ 7; 2 ] (Vector.unsafe_contents v);
      Alcotest.(check bool) "not empty" false (Vector.is_empty v);
      Vector.clear v;
      Alcotest.(check bool) "empty after clear" true (Vector.is_empty v));
  assert_pass "sequential vector" (Checker.check ~mode:`View ~view:(Vector.viewdef ~capacity:8) log Vector.spec)

let test_sb_sequential_semantics () =
  let log = Log.create ~level:`View () in
  Coop.run (fun s ->
      let ctx = Instrument.make s log in
      let p = String_buffer.create ~buffers:2 ~buf_capacity:16 ctx in
      ignore (String_buffer.append_str p 0 "abc");
      ignore (String_buffer.append_str p 1 "XY");
      ignore (String_buffer.append_sb p ~dst:0 ~src:1);
      Alcotest.(check string) "concat" "abcXY" (String_buffer.to_string p 0);
      ignore (String_buffer.append_sb p ~dst:1 ~src:1);
      Alcotest.(check string) "self append" "XYXY" (String_buffer.to_string p 1);
      Alcotest.(check bool) "truncate" true (String_buffer.truncate p 0 2);
      Alcotest.(check string) "truncated" "ab" (String_buffer.to_string p 0);
      Alcotest.(check bool) "truncate too long" false (String_buffer.truncate p 0 99);
      Alcotest.(check int) "length" 2 (String_buffer.length p 0);
      ignore (String_buffer.append_str p 0 "cdef");
      (* "abcdef" *)
      Alcotest.(check (option char)) "char_at" (Some 'c') (String_buffer.char_at p 0 2);
      Alcotest.(check (option char)) "char_at oob" None (String_buffer.char_at p 0 9);
      Alcotest.(check bool) "set_char" true (String_buffer.set_char p 0 0 'z');
      Alcotest.(check string) "after set_char" "zbcdef" (String_buffer.to_string p 0);
      Alcotest.(check bool) "delete_range" true
        (String_buffer.delete_range p 0 ~pos:1 ~len:2);
      Alcotest.(check string) "after delete" "zdef" (String_buffer.to_string p 0);
      Alcotest.(check bool) "delete_range bad" false
        (String_buffer.delete_range p 0 ~pos:3 ~len:5);
      String_buffer.reverse p 0;
      Alcotest.(check string) "reversed" "fedz" (String_buffer.to_string p 0));
  assert_pass "sequential sb"
    (Checker.check ~mode:`View
       ~view:(String_buffer.viewdef ~buffers:2 ~buf_capacity:16)
       log
       (String_buffer.spec ~buffers:2))

let test_sb_capacity_failure_allowed () =
  let log = Log.create ~level:`View () in
  Coop.run (fun s ->
      let ctx = Instrument.make s log in
      let p = String_buffer.create ~buffers:1 ~buf_capacity:4 ctx in
      Alcotest.(check bool) "fits" true (String_buffer.append_str p 0 "abcd" = String_buffer.Success);
      Alcotest.(check bool) "overflows" true
        (String_buffer.append_str p 0 "e" = String_buffer.Failure));
  assert_pass "overflow is exceptional termination"
    (Checker.check ~mode:`Io log (String_buffer.spec ~buffers:1))

(* The array-based Vector specification against the list-based oracle it
   replaced: on random states and random (method, arguments, return)
   triples — well-shaped ones mostly, so transitions succeed as well as
   fail — [apply] gives the same successor (compared by view and saved
   form) or the same error text, [observe] the same answer, and [view],
   [save] and [load] after [save] the same values. *)
let vector_spec_matches_list_oracle =
  let module A = (val Vector.spec) in
  let module L = (val Vector_list_spec.spec) in
  let open QCheck2.Gen in
  let value =
    oneof
      [ map Repr.int (int_range (-1) 8); map Repr.bool bool; return Repr.Unit;
        return Repr.success; return Repr.failure; return (Repr.Str "out_of_bounds") ]
  in
  (* arguments and a return value shaped for [mid], indices around [len] *)
  let shaped len mid =
    let index = map Repr.int (int_range (-1) (len + 1)) in
    let elt = map Repr.int (int_range 0 5) in
    let outcome = oneofl [ Repr.success; Repr.failure ] in
    let one g = map (fun a -> [ a ]) g and two g h = map2 (fun a b -> [ a; b ]) g h in
    match mid with
    | "add" -> pair (one elt) outcome
    | "insert_at" -> pair (two index elt) outcome
    | "remove_last" | "is_empty" -> pair (return []) (map Repr.bool bool)
    | "remove_at" -> pair (one index) (map Repr.bool bool)
    | "set" -> pair (two index elt) (map Repr.bool bool)
    | "clear" -> return ([], Repr.Unit)
    | "get" -> pair (one index) (oneof [ elt; return (Repr.Str "out_of_bounds") ])
    | "size" -> pair (return []) index
    | "contains" -> pair (one elt) (map Repr.bool bool)
    | _ (* index_of, last_index_of *) -> pair (one elt) index
  in
  let mids =
    [ "add"; "remove_last"; "insert_at"; "remove_at"; "set"; "clear"; "get"; "size";
      "is_empty"; "contains"; "index_of"; "last_index_of" ]
  in
  let gen =
    let* st = list_size (int_range 0 10) (int_range 0 5) in
    let* mid = oneofl mids in
    let* args, ret =
      frequency
        [ (4, shaped (List.length st) mid);
          (1, pair (list_size (int_range 0 2) value) value) ]
    in
    return (st, mid, args, ret)
  in
  let print (st, mid, args, ret) =
    Printf.sprintf "state [%s], %s(%s) -> %s"
      (String.concat "; " (List.map string_of_int st))
      mid
      (String.concat ", " (List.map Repr.to_string args))
      (Repr.to_string ret)
  in
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 27 |])
    (QCheck2.Test.make ~name:"vector spec = list-based oracle" ~count:3000 ~print gen
       (fun (st, mid, args, ret) ->
         let saved = Repr.List (List.map Repr.int st) in
         let a = A.load saved and l = L.load saved in
         let same_state a l =
           Repr.equal (A.view a) (L.view l) && A.save a = L.save l
           && Repr.equal (A.view (A.load (Option.get (A.save a)))) (L.view l)
         in
         let ma = A.meth mid and ml = L.meth mid in
         same_state a l
         && A.kind ma = L.kind ml
         && A.observe a ~mid:ma ~args ~ret = L.observe l ~mid:ml ~args ~ret
         &&
         match (A.apply a ~mid:ma ~args ~ret, L.apply l ~mid:ml ~args ~ret) with
         | Ok a', Ok l' -> same_state a' l'
         | Error ea, Error el -> String.equal ea el
         | Ok _, Error _ | Error _, Ok _ -> false))

let suite =
  [
    ("vector correct", `Quick, test_vector_correct);
    ("string buffer correct", `Quick, test_sb_correct);
    ("vector lastIndexOf bug detected", `Quick, test_vector_bug_detected);
    ("vector bug: view no better than io", `Slow, test_vector_bug_view_no_better);
    ("sb append bug detected by view", `Quick, test_sb_bug_detected_by_view);
    ("sb bug: view detects earlier", `Slow, test_sb_view_detects_earlier);
    ("vector sequential semantics", `Quick, test_vector_sequential_semantics);
    ("sb sequential semantics", `Quick, test_sb_sequential_semantics);
    ("sb capacity failure allowed", `Quick, test_sb_capacity_failure_allowed);
    vector_spec_matches_list_oracle;
  ]
