type 'a t = {
  buf : 'a array;
  empty : 'a;  (* fills every free slot, so the ring keeps nothing alive *)
  mutable head : int;  (* next pop *)
  mutable tail : int;  (* next push *)
  mutable size : int;
  mutable is_closed : bool;
  mutable high : int;
  mutable stall : int;  (* ns producers spent blocked *)
  mutable dropped : int;  (* pushes after close *)
  lock : Mutex.t;
  not_full : Condition.t;
  not_empty : Condition.t;
}

let create ~capacity empty =
  if capacity <= 0 then invalid_arg "Ring.create: capacity must be positive";
  {
    buf = Array.make capacity empty;
    empty;
    head = 0;
    tail = 0;
    size = 0;
    is_closed = false;
    high = 0;
    stall = 0;
    dropped = 0;
    lock = Mutex.create ();
    not_full = Condition.create ();
    not_empty = Condition.create ();
  }

let locked t f =
  Mutex.lock t.lock;
  match f () with
  | v ->
    Mutex.unlock t.lock;
    v
  | exception e ->
    Mutex.unlock t.lock;
    raise e

let enqueue t x =
  t.buf.(t.tail) <- x;
  t.tail <- (t.tail + 1) mod Array.length t.buf;
  t.size <- t.size + 1;
  if t.size > t.high then t.high <- t.size;
  Condition.signal t.not_empty

(* Blocks (holding [lock] released inside [Condition.wait]) until at least
   one slot is free or the ring closes; charges the wait to [stall].  The
   clock is monotonicized ({!Mclock}) so a wall-clock step can never make
   the cumulative stall negative. *)
let await_room t =
  if t.size = Array.length t.buf then begin
    let t0 = Mclock.now_ns () in
    while t.size = Array.length t.buf && not t.is_closed do
      Condition.wait t.not_full t.lock
    done;
    t.stall <- t.stall + (Mclock.now_ns () - t0)
  end

let push t x =
  locked t (fun () ->
      if t.is_closed then t.dropped <- t.dropped + 1
      else begin
        await_room t;
        if t.is_closed then t.dropped <- t.dropped + 1 else enqueue t x
      end)

let push_batch t ?(pos = 0) ?len src =
  let len = match len with Some l -> l | None -> Array.length src - pos in
  if pos < 0 || len < 0 || pos + len > Array.length src then
    invalid_arg "Ring.push_batch: slice out of bounds";
  let i = ref pos in
  let remaining = ref len in
  while !remaining > 0 do
    locked t (fun () ->
        if t.is_closed then begin
          t.dropped <- t.dropped + !remaining;
          remaining := 0
        end
        else begin
          await_room t;
          if t.is_closed then begin
            t.dropped <- t.dropped + !remaining;
            remaining := 0
          end
          else begin
            (* one lock acquisition moves as many elements as fit *)
            let cap = Array.length t.buf in
            let n = min (cap - t.size) !remaining in
            for _ = 1 to n do
              t.buf.(t.tail) <- src.(!i);
              t.tail <- (t.tail + 1) mod cap;
              incr i
            done;
            t.size <- t.size + n;
            if t.size > t.high then t.high <- t.size;
            remaining := !remaining - n;
            if n = 1 then Condition.signal t.not_empty
            else Condition.broadcast t.not_empty
          end
        end)
  done

let pop t =
  locked t (fun () ->
      while t.size = 0 && not t.is_closed do
        Condition.wait t.not_empty t.lock
      done;
      if t.size = 0 then None
      else begin
        let x = t.buf.(t.head) in
        t.buf.(t.head) <- t.empty;
        t.head <- (t.head + 1) mod Array.length t.buf;
        t.size <- t.size - 1;
        Condition.signal t.not_full;
        Some x
      end)

let pop_batch t dest =
  let max_n = Array.length dest in
  if max_n = 0 then invalid_arg "Ring.pop_batch: empty destination";
  locked t (fun () ->
      while t.size = 0 && not t.is_closed do
        Condition.wait t.not_empty t.lock
      done;
      let cap = Array.length t.buf in
      let n = min t.size max_n in
      for k = 0 to n - 1 do
        dest.(k) <- t.buf.(t.head);
        t.buf.(t.head) <- t.empty;
        t.head <- (t.head + 1) mod cap
      done;
      t.size <- t.size - n;
      if n = 1 then Condition.signal t.not_full
      else if n > 1 then Condition.broadcast t.not_full;
      n)

let close t =
  locked t (fun () ->
      if not t.is_closed then begin
        t.is_closed <- true;
        Condition.broadcast t.not_empty;
        Condition.broadcast t.not_full
      end)

let closed t = locked t (fun () -> t.is_closed)
let length t = locked t (fun () -> t.size)
let high_water t = locked t (fun () -> t.high)
let stall_ns t = locked t (fun () -> t.stall)
let rejected t = locked t (fun () -> t.dropped)
