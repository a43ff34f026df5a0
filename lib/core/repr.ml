type t =
  | Unit
  | Bool of bool
  | Int of int
  | Str of string
  | Pair of t * t
  | List of t list

(* The checker compares a viewI against a viewS at every commit.  The walk
   checks physical equality at every node, so shared subtrees (persistent
   spec states, interned leaves, memoized component views) are skipped;
   polymorphic [=] would shortcut only at the root. *)
let rec equal a b =
  a == b
  ||
  match (a, b) with
  | Bool x, Bool y -> Bool.equal x y
  | Int x, Int y -> Int.equal x y
  | Str x, Str y -> String.equal x y
  | Pair (a1, a2), Pair (b1, b2) -> equal a1 b1 && equal a2 b2
  | List xs, List ys -> equal_list xs ys
  | (Unit | Bool _ | Int _ | Str _ | Pair _ | List _), _ -> false

and equal_list xs ys =
  xs == ys
  ||
  match (xs, ys) with
  | x :: xs, y :: ys -> equal x y && equal_list xs ys
  | [], _ | _ :: _, _ -> false

(* [pa] and [pb] are known equal; [a] and [b] are often built from them by
   replacing a few subtrees.  A subtree pair that is physically the known
   pair's is equal; only [Pair] nodes where either side changed need a
   look, and below anything else [equal] decides. *)
let rec equal_since pa pb a b =
  (a == pa && b == pb)
  ||
  match (a, b, pa, pb) with
  | Pair (a1, a2), Pair (b1, b2), Pair (pa1, pa2), Pair (pb1, pb2) ->
    equal_since pa1 pb1 a1 b1 && equal_since pa2 pb2 a2 b2
  | _ -> equal a b

let compare a b = if a == b then 0 else Stdlib.compare a b

let rec pp ppf = function
  | Unit -> Fmt.string ppf "()"
  | Bool b -> Fmt.bool ppf b
  | Int i -> Fmt.int ppf i
  | Str s -> Fmt.pf ppf "%S" s
  | Pair (a, b) -> Fmt.pf ppf "@[<hov 1>(%a,@ %a)@]" pp a pp b
  | List vs -> Fmt.pf ppf "@[<hov 1>[%a]@]" Fmt.(list ~sep:semi pp) vs

let to_string v = Fmt.str "%a" pp v
let unit = Unit

(* Leaves are interned so the hot path (views rebuilt at every commit)
   reuses shared nodes instead of boxing the same small scalars millions of
   times; [equal]'s physical-equality shortcut then skips them for free. *)
let true_ = Bool true
let false_ = Bool false
let bool b = if b then true_ else false_
let interned_ints = Array.init 256 (fun i -> Int i)
let int i = if i >= 0 && i < 256 then Array.unsafe_get interned_ints i else Int i
let str s = Str s
let pair a b = Pair (a, b)
let list vs = List vs
let success = Str "success"
let failure = Str "failure"
let is_success v = equal v success
let sorted_list vs = List (List.sort compare vs)

(* Textual serialization ------------------------------------------------ *)

exception Parse_error of string

let rec emit buf = function
  | Unit -> Buffer.add_char buf 'u'
  | Bool true -> Buffer.add_char buf 't'
  | Bool false -> Buffer.add_char buf 'f'
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Str s ->
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | c when Char.code c < 32 || Char.code c > 126 ->
          Buffer.add_string buf (Printf.sprintf "\\x%02x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"'
  | Pair (a, b) ->
    Buffer.add_string buf "(P ";
    emit buf a;
    Buffer.add_char buf ' ';
    emit buf b;
    Buffer.add_char buf ')'
  | List vs ->
    Buffer.add_string buf "(L";
    List.iter
      (fun v ->
        Buffer.add_char buf ' ';
        emit buf v)
      vs;
    Buffer.add_char buf ')'

let to_text v =
  let buf = Buffer.create 32 in
  emit buf v;
  Buffer.contents buf

let fail fmt = Printf.ksprintf (fun m -> raise (Parse_error m)) fmt

let hex_val c =
  match c with
  | '0' .. '9' -> Char.code c - Char.code '0'
  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
  | _ -> fail "invalid hex digit %C" c

let rec skip_ws s i = if i < String.length s && s.[i] = ' ' then skip_ws s (i + 1) else i

let parse_string s i =
  let buf = Buffer.create 16 in
  let n = String.length s in
  let rec go i =
    if i >= n then fail "unterminated string"
    else
      match s.[i] with
      | '"' -> (Buffer.contents buf, i + 1)
      | '\\' ->
        if i + 1 >= n then fail "dangling escape"
        else begin
          match s.[i + 1] with
          | '"' ->
            Buffer.add_char buf '"';
            go (i + 2)
          | '\\' ->
            Buffer.add_char buf '\\';
            go (i + 2)
          | 'n' ->
            Buffer.add_char buf '\n';
            go (i + 2)
          | 'r' ->
            Buffer.add_char buf '\r';
            go (i + 2)
          | 'x' ->
            if i + 3 >= n then fail "truncated \\x escape"
            else begin
              let c = (hex_val s.[i + 2] * 16) + hex_val s.[i + 3] in
              Buffer.add_char buf (Char.chr c);
              go (i + 4)
            end
          | c -> fail "unknown escape \\%C" c
        end
      | c ->
        Buffer.add_char buf c;
        go (i + 1)
  in
  go i

let parse_int s i =
  let n = String.length s in
  let j = if i < n && s.[i] = '-' then i + 1 else i in
  let rec scan j = if j < n && s.[j] >= '0' && s.[j] <= '9' then scan (j + 1) else j in
  let j' = scan j in
  if j' = j then fail "expected digits at %d" i
  else (int_of_string (String.sub s i (j' - i)), j')

let rec of_text_sub s i =
  let i = skip_ws s i in
  if i >= String.length s then fail "unexpected end of input"
  else
    match s.[i] with
    | 'u' -> (Unit, i + 1)
    | 't' -> (Bool true, i + 1)
    | 'f' -> (Bool false, i + 1)
    | '"' ->
      let str, j = parse_string s (i + 1) in
      (Str str, j)
    | '-' | '0' .. '9' ->
      let v, j = parse_int s i in
      (Int v, j)
    | '(' -> parse_compound s (i + 1)
    | c -> fail "unexpected character %C at %d" c i

and parse_compound s i =
  if i >= String.length s then fail "unexpected end in compound"
  else
    match s.[i] with
    | 'P' ->
      let a, j = of_text_sub s (i + 1) in
      let b, j = of_text_sub s j in
      let j = skip_ws s j in
      if j < String.length s && s.[j] = ')' then (Pair (a, b), j + 1)
      else fail "expected ) after pair at %d" j
    | 'L' ->
      let rec elems acc j =
        let j = skip_ws s j in
        if j >= String.length s then fail "unterminated list"
        else if s.[j] = ')' then (List (List.rev acc), j + 1)
        else
          let v, j' = of_text_sub s j in
          elems (v :: acc) j'
      in
      elems [] (i + 1)
    | c -> fail "unknown compound tag %C" c

let of_text s =
  let v, j = of_text_sub s 0 in
  let j = skip_ws s j in
  if j <> String.length s then fail "trailing garbage at %d" j else v
