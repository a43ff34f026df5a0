(* The list-based [java.util.Vector] specification, kept as the oracle of
   the array-based [Vyrd_jlib.Vector.spec]: the two must agree on every
   transition, observation, view and saved state (see [Test_jlib]). *)

open Vyrd

module S = struct
  type state = int list

  let name = "vector"
  let init () = []

  let kind = function
    | "add" | "remove_last" | "insert_at" | "remove_at" | "set" | "clear" ->
      Spec.Mutator
    | "get" | "size" | "is_empty" | "contains" | "index_of" | "last_index_of" ->
      Spec.Observer
    | m -> invalid_arg ("vector spec: unknown method " ^ m)

  type meth = string
  let meth = Spec.by_name kind

  let bad fmt = Printf.ksprintf (fun m -> Error m) fmt

  let apply st ~mid ~args ~ret =
    match (mid, args, ret) with
    | "add", [ Repr.Int x ], ret when Repr.is_success ret -> Ok (st @ [ x ])
    | "add", [ Repr.Int _ ], ret when Repr.equal ret Repr.failure -> Ok st
    | "remove_last", [], Repr.Bool true -> (
      match List.rev st with
      | _ :: rest -> Ok (List.rev rest)
      | [] -> bad "remove_last returned true on an empty vector")
    | "remove_last", [], Repr.Bool false ->
      if st = [] then Ok st else bad "remove_last returned false on a non-empty vector"
    | "insert_at", [ Repr.Int i; Repr.Int x ], ret when Repr.is_success ret ->
      let len = List.length st in
      if i < 0 || i > len then bad "insert_at(%d) succeeded out of bounds" i
      else
        Ok (List.filteri (fun j _ -> j < i) st @ [ x ] @ List.filteri (fun j _ -> j >= i) st)
    | "insert_at", _, ret when Repr.equal ret Repr.failure -> Ok st
    | "remove_at", [ Repr.Int i ], Repr.Bool true ->
      if i >= 0 && i < List.length st then Ok (List.filteri (fun j _ -> j <> i) st)
      else bad "remove_at(%d) returned true out of bounds" i
    | "remove_at", [ Repr.Int i ], Repr.Bool false ->
      if i < 0 || i >= List.length st then Ok st
      else bad "remove_at(%d) returned false in bounds" i
    | "set", [ Repr.Int i; Repr.Int x ], Repr.Bool true ->
      if i >= 0 && i < List.length st then
        Ok (List.mapi (fun j v -> if j = i then x else v) st)
      else bad "set(%d) returned true out of bounds" i
    | "set", [ Repr.Int i; Repr.Int _ ], Repr.Bool false ->
      if i < 0 || i >= List.length st then Ok st
      else bad "set(%d) returned false in bounds" i
    | "clear", [], Repr.Unit -> Ok []
    | mid, _, _ -> bad "no %s transition matches the observed arguments/return" mid

  let observe st ~mid ~args ~ret =
    let len = List.length st in
    match (mid, args, ret) with
    | "size", [], Repr.Int n -> n = len
    | "get", [ Repr.Int i ], Repr.Int v -> i >= 0 && i < len && List.nth st i = v
    | "get", [ Repr.Int i ], Repr.Str "out_of_bounds" -> i < 0 || i >= len
    | "contains", [ Repr.Int x ], Repr.Bool b -> b = List.mem x st
    | "last_index_of", [ Repr.Int x ], Repr.Int r ->
      let last =
        List.fold_left
          (fun (i, acc) v -> (i + 1, if v = x then i else acc))
          (0, -1) st
        |> snd
      in
      r = last
    | "is_empty", [], Repr.Bool b -> b = (len = 0)
    | "index_of", [ Repr.Int x ], Repr.Int r ->
      let rec first i = function
        | [] -> -1
        | v :: _ when v = x -> i
        | _ :: rest -> first (i + 1) rest
      in
      r = first 0 st
    (* non-committing mutator executions *)
    | "add", _, ret -> Repr.equal ret Repr.failure
    | "remove_last", [], Repr.Bool false -> len = 0
    (* insert_at may also fail on a full vector, which the specification
       cannot observe, so any failure is admissible *)
    | "insert_at", _, ret -> Repr.equal ret Repr.failure
    | "remove_at", [ Repr.Int i ], Repr.Bool false -> i < 0 || i >= len
    | "set", [ Repr.Int i; _ ], Repr.Bool false -> i < 0 || i >= len
    | _ -> false

  let view st = Repr.List (List.map Repr.int st)
  let snapshot st = st
  let save st = Some (view st)

  let load = function
    | Repr.List xs ->
      List.map
        (function
          | Repr.Int x -> x
          | v -> invalid_arg ("vector spec: bad saved element " ^ Repr.to_string v))
        xs
    | v -> invalid_arg ("vector spec: bad saved state " ^ Repr.to_string v)
end

let spec : Spec.t = (module S)
