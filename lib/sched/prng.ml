(* The 64-bit state lives in an 8-byte buffer read and written with the
   unboxed primitives: a [mutable state : int64] field would box a fresh
   Int64 at every draw, and the cooperative scheduler draws once per step. *)
type t = Bytes.t

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let[@inline] mix64 z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let of_state s =
  let t = Bytes.create 8 in
  set64 t 0 s;
  t

let create seed = of_state (mix64 (Int64.of_int seed))

let[@inline] next t =
  let s = Int64.add (get64 t 0) 0x9E3779B97F4A7C15L in
  set64 t 0 s;
  mix64 s

let bits64 t = next t

let int t bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  let raw = Int64.to_int (Int64.shift_right_logical (next t) 2) in
  raw mod bound

let bool t = Int64.logand (next t) 1L = 1L
let split t = of_state (mix64 (next t))
let copy = Bytes.copy
