module Sched = Vyrd_sched.Sched
module Faults = Vyrd_faults.Faults

(* Seeded mutant (lib/faults): commit blocks silently lose their brackets,
   so the replayer publishes each write as it happens and a concurrent
   commit observes half-published state — e.g. one valid bit of an
   insert_pair (Fig. 4).  Detected as a view violation at the intervening
   commit. *)
let fault_dropped_block =
  Faults.define ~semantic:false ~name:"instrument.dropped_block"
    ~subject:"Multiset-Vector"
    ~description:
      "with_block emits no commit-block brackets; multi-write commit blocks \
       replay write-by-write and concurrent commits see half-published state"
    ()

type ctx = { sched : Sched.t; log : Log.t }

let make sched log = { sched; log }
let tid ctx = ctx.sched.Sched.self ()

let call ctx mid args =
  if Log.records_io ctx.log then
    Log.append ctx.log (Event.Call { tid = tid ctx; mid; args })

let return_ ctx mid value =
  if Log.records_io ctx.log then
    Log.append ctx.log (Event.Return { tid = tid ctx; mid; value })

let commit ctx =
  if Log.records_io ctx.log then Log.append ctx.log (Event.Commit { tid = tid ctx })

let block_begin ctx =
  if Log.records_writes ctx.log then
    Log.append ctx.log (Event.Block_begin { tid = tid ctx })

let block_end ctx =
  if Log.records_writes ctx.log then
    Log.append ctx.log (Event.Block_end { tid = tid ctx })

let with_block_brackets ctx f =
  block_begin ctx;
  match f () with
  | v ->
    block_end ctx;
    v
  | exception e ->
    block_end ctx;
    raise e

let with_block ctx f =
  if Faults.enabled fault_dropped_block then f () else with_block_brackets ctx f

let op ctx mid args body =
  call ctx mid args;
  let value = body () in
  return_ ctx mid value;
  value

module Cell = struct
  type 'a t = {
    cell_name : string;
    mutable value : 'a;
    repr : ('a -> Repr.t) option;
    ctx : ctx;
  }

  let make ctx ~name ~repr init = { cell_name = name; value = init; repr = Some repr; ctx }
  let make_silent ctx ~name init = { cell_name = name; value = init; repr = None; ctx }

  let get c =
    c.ctx.sched.Sched.yield ();
    if c.repr <> None && Log.records_reads c.ctx.log then
      Log.append c.ctx.log
        (Event.Read { tid = c.ctx.sched.Sched.self (); var = c.cell_name });
    c.value

  let write_logged c v =
    match c.repr with
    | Some repr when Log.records_writes c.ctx.log ->
      Sched.atomic c.ctx.sched (fun () ->
          c.value <- v;
          Log.append c.ctx.log
            (Event.Write
               { tid = c.ctx.sched.Sched.self (); var = c.cell_name; value = repr v }))
    | Some _ | None -> c.value <- v

  let set c v =
    c.ctx.sched.Sched.yield ();
    write_logged c v

  let set_and_commit c v =
    c.ctx.sched.Sched.yield ();
    Sched.atomic c.ctx.sched (fun () ->
        let tid = c.ctx.sched.Sched.self () in
        (match c.repr with
        | Some repr when Log.records_writes c.ctx.log ->
          c.value <- v;
          Log.append c.ctx.log
            (Event.Write { tid; var = c.cell_name; value = repr v })
        | Some _ | None -> c.value <- v);
        if Log.records_io c.ctx.log then Log.append c.ctx.log (Event.Commit { tid }))

  let peek c = c.value
  let poke c v = write_logged c v
  let name c = c.cell_name
end

let log_write ctx ~var value =
  if Log.records_writes ctx.log then
    Log.append ctx.log (Event.Write { tid = tid ctx; var; value })

let log_write_commit ctx ~var value =
  Sched.atomic ctx.sched (fun () ->
      let tid = tid ctx in
      if Log.records_writes ctx.log then
        Log.append ctx.log (Event.Write { tid; var; value });
      if Log.records_io ctx.log then Log.append ctx.log (Event.Commit { tid }))

(* A log's level is fixed at creation, so below [`Full], where no lock event
   is recorded, the engine's mutex serves unwrapped. *)
let mutex ctx ~name =
  let inner = ctx.sched.Sched.new_mutex ~name () in
  if not (Log.records_reads ctx.log) then inner
  else
    let log ev = Log.append ctx.log ev in
    {
      inner with
      Sched.lock =
        (fun () ->
          inner.Sched.lock ();
          log (Event.Acquire { tid = tid ctx; lock = name }));
      Sched.unlock =
        (fun () ->
          log (Event.Release { tid = tid ctx; lock = name });
          inner.Sched.unlock ());
      Sched.try_lock =
        (fun () ->
          let ok = inner.Sched.try_lock () in
          if ok then log (Event.Acquire { tid = tid ctx; lock = name });
          ok);
    }
