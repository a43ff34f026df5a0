module Tid = Vyrd_sched.Tid

(* Thread ids are small consecutive integers (Tid.t = int, 0 = main), so a
   growable flat array beats any map; absent components read as 0. *)
type t = { mutable clocks : int array }

let create () = { clocks = [||] }

let ensure t n =
  if Array.length t.clocks <= n then begin
    let a = Array.make (max (n + 1) ((2 * Array.length t.clocks) + 4)) 0 in
    Array.blit t.clocks 0 a 0 (Array.length t.clocks);
    t.clocks <- a
  end

let get t i = if i >= 0 && i < Array.length t.clocks then t.clocks.(i) else 0

let set t i v =
  ensure t i;
  t.clocks.(i) <- v

let tick t i = set t i (get t i + 1)
let copy t = { clocks = Array.copy t.clocks }
let join t u = Array.iteri (fun i v -> if v > get t i then set t i v) u.clocks

let leq t u =
  let n = Array.length t.clocks in
  let rec go i = i >= n || (t.clocks.(i) <= get u i && go (i + 1)) in
  go 0

let pp ppf t =
  let components =
    Array.to_list (Array.mapi (fun i v -> (i, v)) t.clocks)
    |> List.filter (fun (_, v) -> v > 0)
  in
  Fmt.pf ppf "@[<h><%a>@]"
    Fmt.(list ~sep:comma (fun ppf (i, v) -> pf ppf "%s:%d" (Tid.to_string i) v))
    components

type epoch = { etid : Tid.t; eclock : int }

let epoch t tid = { etid = tid; eclock = get t tid }
let epoch_leq e t = e.eclock <= get t e.etid
