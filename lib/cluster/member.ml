module Wire = Vyrd_net.Wire
module Metrics = Vyrd_pipeline.Metrics

type state = Alive | Draining | Dead

type worker = {
  w_name : string;
  w_addr : Wire.addr;
  w_slots : int;
  mutable w_state : state;
  mutable w_busy : int;
  mutable w_sessions : int;
  mutable w_metrics : Metrics.t option;
  mutable w_ctrl : Unix.file_descr option;
}

type t = {
  lock : Mutex.t;
  vnodes : int;
  seed : int;
  table : (string, worker) Hashtbl.t;
  mutable ring : Hashring.t;
}

let create ?(vnodes = 128) ?(seed = 0) () =
  {
    lock = Mutex.create ();
    vnodes;
    seed;
    table = Hashtbl.create 8;
    ring = Hashring.create ~vnodes ~seed [];
  }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* Only Alive workers occupy ring points: a draining or dead worker stops
   owning keys immediately, and every key it owned remaps to its ring
   successors — exactly the minimal-remapping failover the ring promises. *)
let rebuild t =
  let alive =
    Hashtbl.fold
      (fun name w acc -> if w.w_state = Alive then name :: acc else acc)
      t.table []
  in
  t.ring <- Hashring.create ~vnodes:t.vnodes ~seed:t.seed alive

let add t ~name ~addr ~slots =
  if slots <= 0 then invalid_arg "Member.add: slots";
  locked t (fun () ->
      let w =
        {
          w_name = name;
          w_addr = addr;
          w_slots = slots;
          w_state = Alive;
          w_busy = 0;
          w_sessions = 0;
          w_metrics = None;
          w_ctrl = None;
        }
      in
      Hashtbl.replace t.table name w;
      rebuild t;
      w)

let find t name = locked t (fun () -> Hashtbl.find_opt t.table name)

let workers t =
  locked t (fun () -> Hashtbl.fold (fun _ w acc -> w :: acc) t.table [])
  |> List.sort (fun a b -> String.compare a.w_name b.w_name)

let alive t = List.filter (fun w -> w.w_state = Alive) (workers t)

let mark t name state =
  locked t (fun () ->
      match Hashtbl.find_opt t.table name with
      | None -> ()
      | Some w ->
          if w.w_state <> state then begin
            w.w_state <- state;
            rebuild t
          end)

let ring t = locked t (fun () -> t.ring)

(* Bounded-load placement: walk the ring order from [key]'s owner and take
   the first alive, non-avoided worker with a free slot.  The owner wins
   whenever it has capacity; overflow spills to the next ring successor, so
   placement stays deterministic given (membership, busy counts). *)
let acquire t ~key ~avoid =
  locked t (fun () ->
      let rec pick = function
        | [] -> None
        | name :: rest -> (
            match Hashtbl.find_opt t.table name with
            | Some w
              when w.w_state = Alive && w.w_busy < w.w_slots
                   && not (List.mem name avoid) ->
                w.w_busy <- w.w_busy + 1;
                w.w_sessions <- w.w_sessions + 1;
                Some w
            | _ -> pick rest)
      in
      pick (Hashring.ordered t.ring key))

let release t w =
  locked t (fun () -> if w.w_busy > 0 then w.w_busy <- w.w_busy - 1)
