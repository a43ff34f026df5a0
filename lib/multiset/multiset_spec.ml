open Vyrd
module IntMap = Map.Make (Int)

type state = int IntMap.t

let mid_insert = "insert"
let mid_insert_pair = "insert_pair"
let mid_delete = "delete"
let mid_lookup = "lookup"
let mid_count = "count"
let mid_compress = "compress"
let multiplicity st x = match IntMap.find_opt x st with Some n -> n | None -> 0
let add st x = IntMap.add x (multiplicity st x + 1) st

let remove st x =
  match multiplicity st x with
  | 0 -> None
  | 1 -> Some (IntMap.remove x st)
  | n -> Some (IntMap.add x (n - 1) st)

(* [IntMap.fold] visits the elements in ascending order: the canonical
   order, without a sort *)
let view_of_state st =
  Repr.List
    (List.rev (IntMap.fold (fun x n acc -> Repr.Pair (Repr.int x, Repr.int n) :: acc) st []))

let bad fmt = Printf.ksprintf (fun m -> Error m) fmt

module S = struct
  type nonrec state = state

  let name = "multiset"
  let init () = IntMap.empty

  let kind mid =
    if mid = mid_insert || mid = mid_insert_pair || mid = mid_delete then Spec.Mutator
    else if mid = mid_lookup || mid = mid_count then Spec.Observer
    else if mid = mid_compress then Spec.Internal
    else invalid_arg ("multiset spec: unknown method " ^ mid)

  type meth = string
  let meth = Spec.by_name kind

  let apply st ~mid ~args ~ret =
    match (mid, args, ret) with
    | "insert", [ Repr.Int x ], ret ->
      if Repr.is_success ret then Ok (add st x)
      else if Repr.equal ret Repr.failure then Ok st
      else bad "insert may only return success or failure, got %s" (Repr.to_string ret)
    | "insert_pair", [ Repr.Int x; Repr.Int y ], ret ->
      if Repr.is_success ret then Ok (add (add st x) y)
      else if Repr.equal ret Repr.failure then Ok st
      else
        bad "insert_pair may only return success or failure, got %s"
          (Repr.to_string ret)
    | "delete", [ Repr.Int x ], Repr.Bool true -> (
      match remove st x with
      | Some st' -> Ok st'
      | None -> bad "delete(%d) returned true but %d is not in the multiset" x x)
    | "delete", [ Repr.Int x ], Repr.Bool false ->
      if multiplicity st x = 0 then Ok st
      else bad "delete(%d) returned false but %d is in the multiset" x x
    | "compress", [], Repr.Unit -> Ok st
    | mid, _, _ -> bad "no %s transition matches the observed arguments/return" mid

  (* Non-committing executions of mutator methods are window-checked here:
     exceptional terminations leave the bag unchanged and are always
     allowed; a "successful" return without a commit is never allowed. *)
  let observe st ~mid ~args ~ret =
    match (mid, args, ret) with
    | "lookup", [ Repr.Int x ], Repr.Bool b -> b = (multiplicity st x > 0)
    | "count", [ Repr.Int x ], Repr.Int n -> n = multiplicity st x
    | ("insert" | "insert_pair"), _, ret -> Repr.equal ret Repr.failure
    | "delete", [ Repr.Int x ], Repr.Bool false -> multiplicity st x = 0
    | _ -> false

  let view = view_of_state
  let snapshot st = st

  let save st =
    Some
      (Repr.List
         (IntMap.fold (fun x n acc -> Repr.Pair (Repr.Int x, Repr.Int n) :: acc) st []))

  let load = function
    | Repr.List kvs ->
      List.fold_left
        (fun st -> function
          | Repr.Pair (Repr.Int x, Repr.Int n) when n > 0 -> IntMap.add x n st
          | v -> invalid_arg ("multiset spec: bad saved entry " ^ Repr.to_string v))
        IntMap.empty kvs
    | v -> invalid_arg ("multiset spec: bad saved state " ^ Repr.to_string v)
end

let spec : Spec.t = (module S)
