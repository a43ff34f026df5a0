open Vyrd

type outcome = {
  report : Report.t;
  fail_index : int option;
  total : int;
  replayed : int;
  resumed_at : int option;
  truncated : bool;
  checkpoints : int;
}

type resumed_farm = {
  rf_farm : Farm.t;
  rf_total : int;
  rf_replayed : int;
  rf_resumed_at : int option;
}

(* The one re-check core.  The spool's checkpoints covering at most [at]
   events are tried newest first: each restores into a fresh farm, which is
   fed the event suffix and handed to [close].  A checkpoint that fails —
   at restore, mid-feed or in [close] — falls back to the next older one and
   finally to a full replay, so damage costs replay work, never a verdict.
   With [every], a barrier checkpoint is taken at every multiple of [every]
   events and at the end of the spool; the frames come back oldest first
   next to [close]'s result.  A partial farm is finished (reaping its
   domains) before the next candidate is tried. *)
let run ?capacity ?metrics ?passes ?at ?every ~shards (r : Segment.recovered) close =
  let log = r.Segment.log in
  let level = Log.level log in
  let shards = shards level in
  let events = Log.snapshot log in
  let total = Array.length events in
  let limit = match at with Some n -> min n total | None -> total in
  let attempt ~from restore =
    let farm = Farm.start ?capacity ?metrics ?passes ?restore ~level shards in
    let frames = ref [] in
    (try
       for i = from to total - 1 do
         Farm.feed farm events.(i);
         match every with
         | Some n when (i + 1) mod n = 0 || i + 1 = total -> (
           match Farm.checkpoint farm with
           | Some st -> frames := (i + 1, st) :: !frames
           | None -> ())
         | _ -> ()
       done
     with e ->
       ignore (Farm.finish farm : Farm.result);
       raise e);
    let rf =
      { rf_farm = farm; rf_total = total; rf_replayed = total - from;
        rf_resumed_at = Option.map (fun _ -> from) restore }
    in
    (close rf, List.rev !frames)
  in
  let rec chain = function
    | [] -> attempt ~from:0 None
    | (ck : Segment.checkpoint) :: older -> (
      match attempt ~from:ck.Segment.ck_events (Some ck.Segment.ck_state) with
      | v -> v
      | exception (Ckpt.Malformed _ | Invalid_argument _) -> chain older)
  in
  chain
    (List.filter (fun c -> c.Segment.ck_events <= limit) r.Segment.checkpoints
    |> List.rev)

let resume_open ?capacity ?metrics ?passes ?at ~shards ~path () =
  fst (run ?capacity ?metrics ?passes ?at ~shards (Segment.read path) Fun.id)

let check ?capacity ?metrics ?at ?every ~shards r =
  let (rf, result), frames =
    run ?capacity ?metrics ?at ?every ~shards r (fun rf -> (rf, Farm.finish rf.rf_farm))
  in
  let outcome =
    {
      report = result.Farm.merged;
      fail_index = Farm.min_fail_index result;
      total = rf.rf_total;
      replayed = rf.rf_replayed;
      resumed_at = rf.rf_resumed_at;
      truncated = r.Segment.truncated;
      checkpoints = List.length frames;
    }
  in
  (outcome, frames)

let resume_recovered ?capacity ?metrics ?at ~shards r =
  fst (check ?capacity ?metrics ?at ~shards r)

let resume ?capacity ?metrics ?at ?annotate_every ~shards ~path () =
  (match annotate_every with
  | Some n when n <= 0 -> invalid_arg "Resume.resume: annotate_every"
  | _ -> ());
  let r = Segment.read path in
  (* appending after a torn tail would bury the frames behind the
     corruption the reader stops at, so a truncated spool is only checked:
     no barriers are taken for frames that would not be written *)
  let every = if r.Segment.truncated then None else annotate_every in
  let outcome, frames = check ?capacity ?metrics ?at ?every ~shards r in
  List.iter (fun (n, st) -> Segment.append_checkpoint_file path ~events:n st) frames;
  outcome
