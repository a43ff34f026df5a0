type result = {
  schedules : int;
  exhausted : bool;
  deadlocks : int;
  first_deadlock : int array option;
  flagged : int;
  first_flagged : int array option;
}

(* Per decision point of one run: the arity, the choice taken, and whether
   the choice was forced (preemption budget exhausted), in which case it is
   not a branch point. *)
type step = { arity : int; taken : int; forced : bool }

let index_of tid candidates =
  let rec go i =
    if i >= Array.length candidates then None
    else if Tid.equal candidates.(i) tid then Some i
    else go (i + 1)
  in
  go 0

(* One schedule = one path through the decision tree, identified by the
   choices taken at each decision point.  We run with a scripted prefix,
   defaulting past its end to "continue the running thread if the
   preemption budget is spent, else choice 0", and record every decision so
   the untried siblings can be enqueued. *)
let explore ?(max_schedules = 10_000) ?(max_steps = 1_000_000) ?preemption_bound
    ?(stop = fun () -> false) ?(flagged = fun () -> false) make_main =
  let pending = ref [ [||] ] in
  let schedules = ref 0 in
  let out_of_budget = ref false in
  let deadlocks = ref 0 in
  let first_deadlock = ref None in
  let flagged_runs = ref 0 in
  let first_flagged = ref None in
  let run_prefix (prefix : int array) =
    let steps = ref [] in
    let pos = ref 0 in
    let preemptions = ref 0 in
    let decide (c : Coop.choice) =
      let i = !pos in
      incr pos;
      let arity = Array.length c.Coop.candidates in
      let running_index =
        Option.bind c.Coop.running (fun t -> index_of t c.Coop.candidates)
      in
      let budget_spent =
        match preemption_bound with Some b -> !preemptions >= b | None -> false
      in
      let forced = budget_spent && running_index <> None in
      let taken =
        if i < Array.length prefix then prefix.(i)
        else
          match (forced, running_index) with
          | true, Some r -> r
          | _ -> 0
      in
      (* account preemptions: picking anything but the running thread while
         it could have continued *)
      (match running_index with
      | Some r when taken <> r -> incr preemptions
      | _ -> ());
      steps := { arity; taken; forced } :: !steps;
      taken
    in
    let deadlocked =
      match Coop.run ~max_steps ~decide (make_main ()) with
      | () -> false
      | exception Coop.Deadlock _ -> true
    in
    (Array.of_list (List.rev !steps), deadlocked)
  in
  while !pending <> [] && not (stop ()) && not !out_of_budget do
    match !pending with
    | [] -> ()
    | prefix :: rest ->
      pending := rest;
      if !schedules >= max_schedules then out_of_budget := true
      else begin
        incr schedules;
        let steps, deadlocked = run_prefix prefix in
        if deadlocked then begin
          incr deadlocks;
          (* the full decision script of the deadlocking run — every choice
             was recorded, so replaying it reproduces the hang exactly *)
          if !first_deadlock = None then
            first_deadlock := Some (Array.map (fun s -> s.taken) steps)
        end;
        (* same certificate machinery for caller-defined properties: the
           monitor layer flags runs whose completed trace violates a
           temporal property, and gets back a replayable schedule *)
        if flagged () then begin
          incr flagged_runs;
          if !first_flagged = None then
            first_flagged := Some (Array.map (fun s -> s.taken) steps)
        end;
        (* Branch on the untried alternatives of every unforced decision at
           or beyond the prefix.  Sibling prefixes replay the choices
           actually taken up to that point, then divert.  Deeper positions
           are pushed last so the search stays depth-first. *)
        for i = Array.length prefix to Array.length steps - 1 do
          let s = steps.(i) in
          if not s.forced then
            for a = s.arity - 1 downto 0 do
              if a <> s.taken then begin
                let p = Array.init (i + 1) (fun j -> steps.(j).taken) in
                p.(i) <- a;
                pending := p :: !pending
              end
            done
        done
      end
  done;
  {
    schedules = !schedules;
    exhausted = (not !out_of_budget) && not (stop ());
    deadlocks = !deadlocks;
    first_deadlock = !first_deadlock;
    flagged = !flagged_runs;
    first_flagged = !first_flagged;
  }

let replay ?(max_steps = 1_000_000) (schedule : int array) main =
  let pos = ref 0 in
  let decide (_ : Coop.choice) =
    let i = !pos in
    incr pos;
    if i < Array.length schedule then schedule.(i) else 0
  in
  Coop.run ~max_steps ~decide main
