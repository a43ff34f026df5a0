(* The benchmark's own arithmetic, kept free of any VYRD dependency so
   test_perfbench.ml can pin it down. *)

(* Nearest-rank percentile: the smallest sample with at least [p] of the
   samples at or below it.  [rank n p] is its 0-based index in sorted order. *)
let rank n p =
  if n <= 0 then invalid_arg "Stats.rank: no samples";
  if p <= 0. then 0
  else min (n - 1) (max 0 (int_of_float (Float.ceil (p *. float_of_int n)) - 1))

let percentile sorted p = sorted.(rank (Array.length sorted) p)

(* Samples strictly above the percentile's rank.  A run takes enough
   samples that at least ten lie beyond its highest percentile, so its
   value is not set by one or two outliers. *)
let beyond n p = n - 1 - rank n p

let sorted_of_list xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs = percentile (sorted_of_list xs) 0.5

(* Total length of the union of closed-open intervals [(lo, hi)]. *)
let union_length intervals =
  let sorted = List.sort compare (List.filter (fun (lo, hi) -> hi > lo) intervals) in
  let rec go acc cur = function
    | [] -> (match cur with None -> acc | Some (lo, hi) -> acc + (hi - lo))
    | (lo, hi) :: rest -> (
      match cur with
      | None -> go acc (Some (lo, hi)) rest
      | Some (clo, chi) ->
        if lo <= chi then go acc (Some (clo, max chi hi)) rest
        else go (acc + (chi - clo)) (Some (lo, hi)) rest)
  in
  go 0 None sorted

(* A span's self time: its duration minus the part of it that the union of
   its children covers (children are clipped to the parent's interval). *)
let self_time ~start ~stop children =
  let clipped =
    List.map (fun (lo, hi) -> (max start lo, min stop hi)) children
  in
  (stop - start) - union_length clipped

(* The peak resident set in kB from the text of /proc/self/status. *)
let vmhwm_kb status =
  let field = "VmHWM:" in
  let flen = String.length field in
  String.split_on_char '\n' status
  |> List.find_map (fun line ->
         if String.length line >= flen && String.sub line 0 flen = field then
           let rest = String.sub line flen (String.length line - flen) in
           match
             String.split_on_char ' ' (String.map (fun c -> if c = '\t' then ' ' else c) rest)
             |> List.filter (( <> ) "")
           with
           | n :: ("kB" | "KB" | "kb") :: _ | [ n ] -> int_of_string_opt n
           | _ -> None
         else None)

(* SplitMix64 finalizer on OCaml's 63-bit ints, truncated to 30 bits: a
   unit's seed depends only on the workload seed and the unit's position,
   never on the run, the host or the OCaml version. *)
let mix z =
  let z = (z lxor (z lsr 30)) * 0x3f58476d1ce4e5b9 in
  let z = (z lxor (z lsr 27)) * 0x14d049bb133111eb in
  z lxor (z lsr 31)

let unit_seed ~seed ~index ~attempt =
  mix ((seed * 0x1e3779b97f4a7c15) + mix ((index * 1024) + attempt)) land 0x3fffffff
