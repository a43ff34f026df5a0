type t = int

let equal = Int.equal
let compare = Int.compare
let to_string t = "T" ^ string_of_int t
let pp ppf t = Format.pp_print_string ppf (to_string t)

module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = Int.equal
  let hash (t : t) = t
end)
