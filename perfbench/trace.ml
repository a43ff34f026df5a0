(* In-memory spans recorded by the benchmark around its own calls into each
   layer.  Nothing is written until [write] at the end of the run. *)

type span = {
  id : int;
  name : string;
  start : int;  (* ns *)
  stop : int;  (* ns *)
  parent : int;  (* id of the enclosing span, -1 for a root *)
  unit_id : int;  (* the benchmark unit the span worked on *)
}

type t = {
  clock : unit -> int;
  mutable spans : span list;  (* newest first *)
  mutable next : int;
  mutable open_ : int list;  (* ids of the spans now open, innermost first *)
  mutable unit_id : int;
}

let create ~clock () = { clock; spans = []; next = 0; open_ = []; unit_id = -1 }
let set_unit t u = t.unit_id <- u

let with_span t name f =
  let id = t.next in
  t.next <- id + 1;
  let parent = match t.open_ with [] -> -1 | p :: _ -> p in
  t.open_ <- id :: t.open_;
  let start = t.clock () in
  Fun.protect
    ~finally:(fun () ->
      let stop = t.clock () in
      t.open_ <- List.tl t.open_;
      t.spans <- { id; name; start; stop; parent; unit_id = t.unit_id } :: t.spans)
    f

(* [span tr name f] runs [f] inside a span when tracing, and bare when not. *)
let span tr name f = match tr with None -> f () | Some t -> with_span t name f

let spans t = List.rev t.spans

(* Self time per span id: duration minus the union of its children. *)
let self_times spans =
  let children = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace children s.parent
          ((s.start, s.stop) :: Option.value ~default:[] (Hashtbl.find_opt children s.parent)))
    spans;
  List.map
    (fun s ->
      let kids = Option.value ~default:[] (Hashtbl.find_opt children s.id) in
      (s, Stats.self_time ~start:s.start ~stop:s.stop kids))
    spans

(* Total self time in ns of the spans called [name]. *)
let self_ns selfs name =
  List.fold_left (fun acc ((s : span), st) -> if s.name = name then acc + st else acc) 0 selfs

let durations spans name =
  List.filter_map (fun s -> if s.name = name then Some (s.stop - s.start) else None) spans

let write path spans =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"id\":%d,\"name\":%S,\"start_ns\":%d,\"end_ns\":%d,\"parent\":%d,\"unit\":%d}\n"
            s.id s.name s.start s.stop s.parent s.unit_id)
        spans)
