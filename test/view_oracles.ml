(* The Multiset-Vector and StringBuffer view definitions and the multiset
   and StringBuffer specification views as they were before views became
   incremental below component granularity: a [Hashtbl] count and a sort
   over every slot, one [Full] closure over every buffer, and specification
   views that re-sort their map.  Kept as the oracles of the current
   definitions, which must give equal values, printed identically, at every
   commit (see [Test_compose]). *)

open Vyrd
module IntMap = Map.Make (Int)

let multiset_vector_viewdef ~capacity : View.t =
  let valid_vars = Array.init capacity (Printf.sprintf "A[%d].valid") in
  let elt_vars = Array.init capacity (Printf.sprintf "A[%d].elt") in
  View.Full
    (fun lookup ->
      let counts = Hashtbl.create 16 in
      for i = 0 to capacity - 1 do
        match (lookup valid_vars.(i), lookup elt_vars.(i)) with
        | Some (Repr.Bool true), Some (Repr.Int x) ->
          Hashtbl.replace counts x
            (1 + Option.value ~default:0 (Hashtbl.find_opt counts x))
        | _ -> ()
      done;
      View.canonical_of_assoc
        (Hashtbl.fold (fun x n acc -> (Repr.int x, Repr.int n) :: acc) counts []))

let string_buffer_viewdef ~buffers ~buf_capacity : View.t =
  let len_vars = Array.init buffers (Printf.sprintf "b%d.len") in
  let char_vars =
    Array.init buffers (fun b -> Array.init buf_capacity (Printf.sprintf "b%d.char[%d]" b))
  in
  View.Full
    (fun lookup ->
      let contents b =
        let l =
          match lookup len_vars.(b) with Some (Repr.Int l) -> min l buf_capacity | _ -> 0
        in
        let ch j =
          match lookup char_vars.(b).(j) with
          | Some (Repr.Str s) when String.length s = 1 -> s.[0]
          | _ -> '\000'
        in
        Repr.Str (String.init l ch)
      in
      View.canonical_of_assoc
        (List.init buffers (fun b -> (Repr.int b, contents b))))

let multiset_spec_view (st : int IntMap.t) =
  View.canonical_of_assoc
    (IntMap.fold (fun x n acc -> (Repr.int x, Repr.int n) :: acc) st [])

let string_buffer_spec_view (st : string IntMap.t) =
  View.canonical_of_assoc
    (IntMap.fold (fun b s acc -> (Repr.int b, Repr.Str s) :: acc) st [])

(* The two specifications' states rebuilt from their saved form, a list of
   (key, value) pairs, for the oracle views above. *)
let map_of_saved value = function
  | Some (Repr.List kvs) ->
    List.fold_left
      (fun m -> function
        | Repr.Pair (Repr.Int k, v) -> IntMap.add k (value v) m
        | v -> invalid_arg ("view oracle: bad saved entry " ^ Repr.to_string v))
      IntMap.empty kvs
  | _ -> invalid_arg "view oracle: the specification does not save its state"

let multiset_of_saved =
  map_of_saved (function Repr.Int n -> n | _ -> invalid_arg "view oracle: count")

let string_buffer_of_saved =
  map_of_saved (function Repr.Str s -> s | _ -> invalid_arg "view oracle: contents")
