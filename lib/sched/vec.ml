(* Elements live in [data.(head) .. data.(head + len - 1)].  Every other
   slot holds [empty], an immediate, so a vacated or spare slot never keeps
   a dropped element reachable.  The array is an [Obj.t array] created from
   an immediate: it is never a flat float array, and every access goes
   through the generic (tag-checking) array primitives. *)
type 'a t = { mutable data : Obj.t array; mutable head : int; mutable len : int }

let empty = Obj.repr 0
let create () = { data = [||]; head = 0; len = 0 }
let length v = v.len
let is_empty v = v.len = 0

(* Make room for one more element at the end: move the live run to the
   front when at most half the array is live, else double.  Either way
   the next [cap / 2] pushes are free, so [push] stays O(1) amortized even
   when [drop_prefix] keeps advancing [head]. *)
let make_room v =
  let cap = Array.length v.data in
  if v.head + v.len = cap then begin
    if v.len > 0 && 2 * v.len <= cap then begin
      (* [len <= head] here, so the old run does not overlap the new one *)
      Array.blit v.data v.head v.data 0 v.len;
      Array.fill v.data v.head v.len empty
    end
    else begin
      let data' = Array.make (max 8 (2 * cap)) empty in
      Array.blit v.data v.head data' 0 v.len;
      v.data <- data'
    end;
    v.head <- 0
  end

let push v x =
  make_room v;
  Array.unsafe_set v.data (v.head + v.len) (Obj.repr x);
  v.len <- v.len + 1

let check v i op =
  if i < 0 || i >= v.len then
    invalid_arg (Printf.sprintf "Vec.%s: index %d out of bounds [0,%d)" op i v.len)

let unsafe_get v i : 'a = Obj.obj (Array.unsafe_get v.data (v.head + i))

let get v i =
  check v i "get";
  unsafe_get v i

let set v i x =
  check v i "set";
  Array.unsafe_set v.data (v.head + i) (Obj.repr x)

(* Vacate the last slot, returning what it held. *)
let take_last v =
  v.len <- v.len - 1;
  let last = v.head + v.len in
  let x = Array.unsafe_get v.data last in
  Array.unsafe_set v.data last empty;
  if v.len = 0 then v.head <- 0;
  x

let swap_remove v i =
  check v i "swap_remove";
  let x = unsafe_get v i in
  let last = take_last v in
  if i < v.len then Array.unsafe_set v.data (v.head + i) last;
  x

let pop v =
  if v.len = 0 then invalid_arg "Vec.pop: empty";
  Obj.obj (take_last v)

let iter f v =
  for i = 0 to v.len - 1 do
    f (unsafe_get v i)
  done

let fold_left f acc v =
  let acc = ref acc in
  for i = 0 to v.len - 1 do
    acc := f !acc (unsafe_get v i)
  done;
  !acc

let to_list v = List.init v.len (unsafe_get v)

let of_list xs =
  let v = create () in
  List.iter (push v) xs;
  v

let clear v =
  Array.fill v.data v.head v.len empty;
  v.head <- 0;
  v.len <- 0

let sub_list v ~pos ~len =
  if pos < 0 || len < 0 || pos + len > v.len then invalid_arg "Vec.sub_list";
  List.init len (fun i -> unsafe_get v (pos + i))

let drop_prefix v n =
  if n < 0 || n > v.len then invalid_arg "Vec.drop_prefix";
  Array.fill v.data v.head n empty;
  v.len <- v.len - n;
  v.head <- (if v.len = 0 then 0 else v.head + n)
