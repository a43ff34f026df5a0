module Tid = Vyrd_sched.Tid

type options = { col_width : int; show_writes : bool; max_events : int option }

let default = { col_width = 22; show_writes = false; max_events = None }

let clip width s =
  let s = String.map (function '\n' | '\r' -> ' ' | c -> c) s in
  if String.length s <= width then s else String.sub s 0 width

let cell_text ev =
  match ev with
  | Event.Call { mid; args; _ } ->
    Some (Fmt.str "call %s(%a)" mid Fmt.(list ~sep:comma Repr.pp) args)
  | Event.Return { mid; value; _ } -> Some (Fmt.str "ret %s=%a" mid Repr.pp value)
  | Event.Commit _ -> Some "* COMMIT"
  | Event.Write { var; value; _ } -> Some (Fmt.str "%s:=%a" var Repr.pp value)
  | Event.Block_begin _ -> Some "[ block"
  | Event.Block_end _ -> Some "] block"
  | Event.Read { var; _ } -> Some (Fmt.str "read %s" var)
  | Event.Acquire { lock; _ } -> Some (Fmt.str "acq %s" lock)
  | Event.Release { lock; _ } -> Some (Fmt.str "rel %s" lock)

let visible options ev =
  match ev with
  | Event.Call _ | Event.Return _ | Event.Commit _ -> true
  | Event.Write _ | Event.Block_begin _ | Event.Block_end _ -> options.show_writes
  | Event.Read _ | Event.Acquire _ | Event.Release _ -> options.show_writes

let render_events ?(options = default) evs =
  let evs =
    match options.max_events with
    | Some n -> List.filteri (fun i _ -> i < n) evs
    | None -> evs
  in
  let evs = List.filter (visible options) evs in
  (* columns in order of first appearance *)
  let tids =
    List.fold_left
      (fun acc ev ->
        let tid = Event.tid ev in
        if List.mem tid acc then acc else tid :: acc)
      [] evs
    |> List.rev
  in
  let col tid =
    let rec idx i = function
      | [] -> assert false
      | t :: _ when Tid.equal t tid -> i
      | _ :: rest -> idx (i + 1) rest
    in
    idx 0 tids
  in
  let w = options.col_width in
  let buf = Buffer.create 1024 in
  let pad s = Printf.sprintf "%-*s" w (clip (w - 1) s) in
  (* header *)
  Buffer.add_string buf "time  ";
  List.iter (fun tid -> Buffer.add_string buf (pad (Tid.to_string tid))) tids;
  Buffer.add_char buf '\n';
  Buffer.add_string buf "      ";
  List.iter (fun _ -> Buffer.add_string buf (pad (String.make (max 0 (w - 2)) '-'))) tids;
  Buffer.add_char buf '\n';
  List.iteri
    (fun i ev ->
      match cell_text ev with
      | None -> ()
      | Some text ->
        Buffer.add_string buf (Printf.sprintf "%4d  " i);
        let c = col (Event.tid ev) in
        for j = 0 to List.length tids - 1 do
          Buffer.add_string buf (pad (if j = c then text else "."))
        done;
        Buffer.add_char buf '\n')
    evs;
  Buffer.contents buf

let render ?options log = render_events ?options (Log.events log)

let tail ?(options = default) ?(window = 25) log ~until =
  let evs = Log.events log in
  let until = min until (List.length evs) in
  let start = max 0 (until - window) in
  let slice =
    List.filteri (fun i _ -> i >= start && i < until) evs
  in
  Printf.sprintf "events %d..%d of %d:\n%s" start (until - 1) (List.length evs)
    (render_events ~options slice)

let witness log =
  (* pair commits with their executions, in commit order *)
  let open_calls : (Tid.t, string * Repr.t list) Hashtbl.t = Hashtbl.create 16 in
  let commits = ref [] in
  (* (ordinal, tid, mid, args, ret option filled later) *)
  let pending : (Tid.t * Repr.t option ref) list ref = ref [] in
  let ordinal = ref 0 in
  Log.iter
    (fun ev ->
      match ev with
      | Event.Call { tid; mid; args } -> Hashtbl.replace open_calls tid (mid, args)
      | Event.Commit { tid } -> (
        match Hashtbl.find_opt open_calls tid with
        | Some (mid, args) ->
          incr ordinal;
          let ret = ref None in
          commits := (!ordinal, tid, mid, args, ret) :: !commits;
          pending := (tid, ret) :: !pending
        | None -> ())
      | Event.Return { tid; value; _ } -> (
        Hashtbl.remove open_calls tid;
        match List.assoc_opt tid !pending with
        | Some ret ->
          ret := Some value;
          pending := List.filter (fun (t, _) -> not (Tid.equal t tid)) !pending
        | None -> ())
      | _ -> ())
    log;
  let buf = Buffer.create 256 in
  Buffer.add_string buf "witness interleaving (commit order):\n";
  List.iter
    (fun (i, tid, mid, args, ret) ->
      Buffer.add_string buf
        (Fmt.str "  %2d. %s %s(%a)%s\n" i (Tid.to_string tid) mid
           Fmt.(list ~sep:comma Repr.pp)
           args
           (match !ret with
           | Some v -> Fmt.str " -> %a" Repr.pp v
           | None -> " -> ?")))
    (List.rev !commits);
  Buffer.contents buf
