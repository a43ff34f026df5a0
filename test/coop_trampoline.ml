(* The cooperative engine as it was before fiber switches moved into the
   effect handler: every [Yield], [Spawn] and [Suspend] handler only queues
   the continuation and returns, and a trampoline loop outside the handler
   draws the next pick and resumes it.  Kept as the oracle of [Coop], which
   must make the same scheduling decisions: the same per-step thread, the
   same [stats], the same [Livelock] count, [Deadlock] message or re-raised
   exception (see [Test_sched]).  It raises [Coop]'s exceptions and returns
   [Coop]'s records, so outcomes compare directly. *)

open Vyrd_sched
open Effect
open Effect.Deep

exception Deadlock = Coop.Deadlock
exception Livelock = Coop.Livelock

type stats = Coop.stats = { steps : int; threads : int }

type task =
  | Start of (unit -> unit)
  | Resume of (unit, unit) continuation

type choice = Coop.choice = { candidates : Tid.t array; running : Tid.t option }

(* Effects performed by fibers; handled by the trampoline in [run]. *)
type _ Effect.t +=
  | Yield : unit Effect.t
  | Spawn : (unit -> unit) -> unit Effect.t
  | Suspend : (Tid.t -> (unit, unit) continuation -> unit) -> unit Effect.t

type cmutex = {
  cm_name : string;
  mutable cm_owner : Tid.t option;
  mutable cm_depth : int;
  cm_waiters : (Tid.t * (unit, unit) continuation) Vec.t;
}

type crwlock = {
  crw_name : string;
  mutable crw_readers : int;
  mutable crw_writer : Tid.t option;
  crw_read_waiters : (Tid.t * (unit, unit) continuation) Vec.t;
  crw_write_waiters : (Tid.t * (unit, unit) continuation) Vec.t;
}

type state = {
  decide : (choice -> int) option;  (* a caller's policy; [None] draws from [rng] *)
  rng : Prng.t;
  mutable last_ran : Tid.t;  (* tid of the previously executed slice, or -1 *)
  runq : (Tid.t * task) Vec.t;
  mutable current : Tid.t;
  mutable live : int;
  mutable next_tid : int;
  mutable steps : int;
  mutable predrawn : int;  (* run-queue pick drawn by [sched_point], or -1 *)
  mutable in_atomic : bool;
  mutable first_exn : (exn * Printexc.raw_backtrace) option;
  max_steps : int;
  mutexes : cmutex Vec.t;  (* registry, for deadlock diagnostics *)
}

let fresh_tid st =
  let t = st.next_tid in
  st.next_tid <- t + 1;
  t

let record_exn st e bt = if st.first_exn = None then st.first_exn <- Some (e, bt)

let make_runnable st tid k = Vec.push st.runq (tid, Resume k)

(* The seeded default's pick among [n] candidates: the one draw shared by
   [choose] and [sched_point]'s pre-drawn pick. *)
let default_pick st n = Prng.int st.rng n

(* Index of the next pick from [q], a run queue or a lock's waiters.  The
   seeded default draws straight from the queue's length and allocates
   nothing; only a caller-supplied [decide] is shown a [choice].  [running]
   is offered for run-queue picks only. *)
let choose st q ~run_queue =
  match st.decide with
  | None -> default_pick st (Vec.length q)
  | Some decide ->
    let candidates = Array.init (Vec.length q) (fun i -> fst (Vec.get q i)) in
    let running =
      if run_queue && Array.exists (Tid.equal st.last_ran) candidates then
        Some st.last_ran
      else None
    in
    decide { candidates; running }

(* A scheduling point.  Inside an [atomically] section control must not
   transfer, so the yield is suppressed.  The seeded default draws the
   trampoline's pick here, over the run queue plus the yielder, which
   [Yield] would push last: when the draw is the yielder itself, the step
   is counted and the fiber just carries on, without capturing and
   resuming its continuation.  Same PRNG draw, same run queue, same
   [steps]; the step that would exceed [max_steps] still goes through the
   trampoline, which raises [Livelock] at the same count. *)
let sched_point st =
  if not st.in_atomic then
    match st.decide with
    | None when st.steps < st.max_steps ->
      let n = Vec.length st.runq in
      let i = default_pick st (n + 1) in
      if i = n then st.steps <- st.steps + 1
      else begin
        st.predrawn <- i;
        perform Yield
      end
    | None | Some _ -> perform Yield

let deadlock_message st =
  let buf = Buffer.create 128 in
  Buffer.add_string buf
    (Printf.sprintf "deadlock: %d thread(s) blocked and none runnable" st.live);
  (* one clause per blocked thread: the lock it waits on, that lock's owner,
     and every registered mutex the waiter itself holds — enough to read the
     wait-for cycle straight off the message *)
  let held_by tid =
    let hs = ref [] in
    Vec.iter
      (fun m ->
        match m.cm_owner with
        | Some o when Tid.equal o tid -> hs := m.cm_name :: !hs
        | Some _ | None -> ())
      st.mutexes;
    List.sort compare !hs
  in
  let describe m =
    match m.cm_owner with
    | Some owner when Vec.length m.cm_waiters > 0 ->
      Vec.iter
        (fun (t, _) ->
          Buffer.add_string buf
            (Printf.sprintf "; %s waits on %S (held by %s) holding %s"
               (Tid.to_string t) m.cm_name (Tid.to_string owner)
               (match held_by t with
               | [] -> "nothing"
               | hs -> "{" ^ String.concat ", " hs ^ "}")))
        m.cm_waiters
    | Some _ | None -> ()
  in
  Vec.iter describe st.mutexes;
  Buffer.contents buf

let new_mutex st ?(name = "mutex") () : Sched.mutex =
  let m =
    { cm_name = name; cm_owner = None; cm_depth = 0; cm_waiters = Vec.create () }
  in
  Vec.push st.mutexes m;
  let lock () =
    sched_point st;
    let me = st.current in
    match m.cm_owner with
    | Some t when Tid.equal t me -> m.cm_depth <- m.cm_depth + 1
    | None ->
      m.cm_owner <- Some me;
      m.cm_depth <- 1
    | Some _ ->
      (* Ownership is handed to us by [unlock] before we are resumed. *)
      perform (Suspend (fun tid k -> Vec.push m.cm_waiters (tid, k)))
  in
  let unlock () =
    let me = st.current in
    (match m.cm_owner with
    | Some t when Tid.equal t me -> ()
    | Some t ->
      invalid_arg
        (Printf.sprintf "unlock: mutex %S held by %s, released by %s" name
           (Tid.to_string t) (Tid.to_string me))
    | None -> invalid_arg (Printf.sprintf "unlock: mutex %S is not held" name));
    m.cm_depth <- m.cm_depth - 1;
    if m.cm_depth = 0 then
      if Vec.is_empty m.cm_waiters then m.cm_owner <- None
      else begin
        let i = choose st m.cm_waiters ~run_queue:false in
        let tid, k = Vec.swap_remove m.cm_waiters i in
        m.cm_owner <- Some tid;
        m.cm_depth <- 1;
        make_runnable st tid k
      end
  in
  let try_lock () =
    let me = st.current in
    match m.cm_owner with
    | Some t when Tid.equal t me ->
      m.cm_depth <- m.cm_depth + 1;
      true
    | None ->
      m.cm_owner <- Some me;
      m.cm_depth <- 1;
      true
    | Some _ -> false
  in
  { lock; unlock; try_lock; holder = (fun () -> m.cm_owner); mutex_name = name }

let new_rwlock st ?(name = "rwlock") () : Sched.rwlock =
  let l =
    {
      crw_name = name;
      crw_readers = 0;
      crw_writer = None;
      crw_read_waiters = Vec.create ();
      crw_write_waiters = Vec.create ();
    }
  in
  let wake_one_writer () =
    let i = choose st l.crw_write_waiters ~run_queue:false in
    let tid, k = Vec.swap_remove l.crw_write_waiters i in
    l.crw_writer <- Some tid;
    make_runnable st tid k
  in
  let wake_all_readers () =
    l.crw_readers <- l.crw_readers + Vec.length l.crw_read_waiters;
    Vec.iter (fun (tid, k) -> make_runnable st tid k) l.crw_read_waiters;
    Vec.clear l.crw_read_waiters
  in
  let begin_read () =
    sched_point st;
    (* Writer preference: incoming readers queue behind waiting writers. *)
    if l.crw_writer = None && Vec.is_empty l.crw_write_waiters then
      l.crw_readers <- l.crw_readers + 1
    else perform (Suspend (fun tid k -> Vec.push l.crw_read_waiters (tid, k)))
  in
  let end_read () =
    if l.crw_readers <= 0 then
      invalid_arg (Printf.sprintf "end_read: rwlock %S has no readers" name);
    l.crw_readers <- l.crw_readers - 1;
    if l.crw_readers = 0 && not (Vec.is_empty l.crw_write_waiters) then
      wake_one_writer ()
  in
  let begin_write () =
    sched_point st;
    if l.crw_writer = None && l.crw_readers = 0 then l.crw_writer <- Some st.current
    else perform (Suspend (fun tid k -> Vec.push l.crw_write_waiters (tid, k)))
  in
  let end_write () =
    (match l.crw_writer with
    | Some t when Tid.equal t st.current -> ()
    | Some _ | None ->
      invalid_arg (Printf.sprintf "end_write: rwlock %S not held by caller" name));
    l.crw_writer <- None;
    if not (Vec.is_empty l.crw_write_waiters) then wake_one_writer ()
    else if not (Vec.is_empty l.crw_read_waiters) then wake_all_readers ()
  in
  { begin_read; end_read; begin_write; end_write; rwlock_name = name }

let sched_of_state st : Sched.t =
  let atomically : Sched.atomically =
    {
      run_atomically =
        (fun f ->
          if st.in_atomic then f ()
          else begin
            st.in_atomic <- true;
            match f () with
            | v ->
              st.in_atomic <- false;
              v
            | exception e ->
              st.in_atomic <- false;
              raise e
          end);
    }
  in
  {
    engine = "coop";
    spawn = (fun ?tname f -> ignore tname; perform (Spawn f));
    yield = (fun () -> sched_point st);
    self = (fun () -> st.current);
    new_mutex = (fun ?name () -> new_mutex st ?name ());
    new_rwlock = (fun ?name () -> new_rwlock st ?name ());
    atomically;
  }

let run_with_stats ?(seed = 0) ?(max_steps = 20_000_000) ?decide main =
  let st =
    {
      decide;
      rng = Prng.create seed;
      last_ran = -1;
      runq = Vec.create ();
      current = 0;
      live = 0;
      next_tid = 0;
      steps = 0;
      predrawn = -1;
      in_atomic = false;
      first_exn = None;
      max_steps;
      mutexes = Vec.create ();
    }
  in
  let sched = sched_of_state st in
  (* allocated once: a [Yield] is performed at every scheduling point.
     The yielder goes last in the run queue, so the last index of
     [sched_point]'s draw (over the queue plus the yielder) names it: a
     re-pick there leaves the queue as pushing the yielder and
     [swap_remove]-ing it back out would.  Keep the append last. *)
  let on_yield = Some (fun k -> make_runnable st st.current k) in
  let handler : (unit, unit) handler =
    {
      retc = (fun () -> st.live <- st.live - 1);
      exnc =
        (fun e ->
          record_exn st e (Printexc.get_raw_backtrace ());
          st.live <- st.live - 1);
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Yield -> (on_yield : ((a, unit) continuation -> unit) option)
          | Spawn f ->
            Some
              (fun (k : (a, unit) continuation) ->
                let tid = fresh_tid st in
                st.live <- st.live + 1;
                Vec.push st.runq (tid, Start f);
                make_runnable st st.current k)
          | Suspend register ->
            Some (fun (k : (a, unit) continuation) -> register st.current k)
          | _ -> None);
    }
  in
  let exec_start f = match_with f () handler in
  let main_tid = fresh_tid st in
  st.live <- st.live + 1;
  Vec.push st.runq (main_tid, Start (fun () -> main sched));
  let rec loop () =
    if Vec.is_empty st.runq then begin
      if st.live > 0 then
        match st.first_exn with
        | Some (e, bt) -> Printexc.raise_with_backtrace e bt
        | None -> raise (Deadlock (deadlock_message st))
    end
    else begin
      st.steps <- st.steps + 1;
      if st.steps > st.max_steps then raise (Livelock st.steps);
      let i =
        if st.predrawn < 0 then choose st st.runq ~run_queue:true
        else begin
          let i = st.predrawn in
          st.predrawn <- -1;
          i
        end
      in
      let tid, task = Vec.swap_remove st.runq i in
      st.current <- tid;
      st.last_ran <- tid;
      (match task with Start f -> exec_start f | Resume k -> continue k ());
      loop ()
    end
  in
  loop ();
  (match st.first_exn with
  | Some (e, bt) -> Printexc.raise_with_backtrace e bt
  | None -> ());
  { steps = st.steps; threads = st.next_tid }

let run ?seed ?max_steps ?decide main =
  ignore (run_with_stats ?seed ?max_steps ?decide main)
