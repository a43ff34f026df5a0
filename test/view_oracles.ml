(* The Multiset-Vector and StringBuffer view definitions and the multiset
   and StringBuffer specification views as they were before views became
   incremental below component granularity: a [Hashtbl] count and a sort
   over every slot, one [Full] closure over every buffer, and specification
   views that re-sort their map.  Then the Cache and ScanFS views and
   invariants as they were before their variable names were precomputed:
   every lookup builds its name with [Printf.sprintf].  Kept as the oracles
   of the current definitions, which must give equal values, printed
   identically, at every commit (see [Test_compose], [Test_boxwood_cache]
   and [Test_scanfs]). *)

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

(* --- Cache ---------------------------------------------------------------- *)

let cache_state_var h = Printf.sprintf "cache.state[%d]" h
let cache_data_var h j = Printf.sprintf "cache.data[%d][%d]" h j
let chunk_var h = Printf.sprintf "chunk[%d]" h

let cache_state lookup h =
  match lookup (cache_state_var h) with
  | Some (Repr.Str ("clean" | "dirty" as s)) -> s
  | Some _ | None -> "none"

let cache_entry_bytes lookup ~buf_size h =
  String.init buf_size (fun j ->
      match lookup (cache_data_var h j) with
      | Some (Repr.Str s) when String.length s = 1 -> s.[0]
      | _ -> '\000')

let cache_chunk_bytes lookup ~buf_size h =
  match lookup (chunk_var h) with
  | Some (Repr.Str s) ->
    let l = String.length s in
    if l = 0 then ""
    else if l >= buf_size then String.sub s 0 buf_size
    else s ^ String.make (buf_size - l) '\000'
  | Some _ | None -> ""

let cache_abstract_value lookup ~buf_size h =
  let bytes =
    match cache_state lookup h with
    | "clean" | "dirty" -> cache_entry_bytes lookup ~buf_size h
    | _ -> cache_chunk_bytes lookup ~buf_size h
  in
  if bytes = "" then None else Some (Repr.Str bytes)

let cache_viewdef ~chunks ~buf_size : View.t =
  View.Full
    (fun lookup ->
      View.canonical_of_assoc
        (List.filter_map
           (fun h ->
             Option.map (fun v -> (Repr.Int h, v)) (cache_abstract_value lookup ~buf_size h))
           (List.init chunks Fun.id)))

let cache_invariant ~chunks ~buf_size : Checker.invariant =
  ( "clean cache entry matches chunk manager",
    fun lookup ->
      List.for_all
        (fun h ->
          cache_state lookup h <> "clean"
          || cache_entry_bytes lookup ~buf_size h = cache_chunk_bytes lookup ~buf_size h)
        (List.init chunks Fun.id) )

(* --- ScanFS --------------------------------------------------------------- *)

let block_size = 8
let fs_state_var b = Printf.sprintf "fstate[%d]" b
let fs_data_var b j = Printf.sprintf "fblk[%d][%d]" b j
let fs_disk_var b = Printf.sprintf "disk[%d]" b
let fs_dir_var name = Printf.sprintf "dir[%s]" name

let fs_entry = function
  | Some (Repr.List [ Repr.Int len; Repr.List bs ]) ->
    Some (len, List.map (function Repr.Int b -> b | _ -> assert false) bs)
  | Some _ | None -> None

let fs_names lookup =
  match lookup "fs.names" with
  | Some (Repr.List ns) -> List.filter_map (function Repr.Str n -> Some n | _ -> None) ns
  | Some _ | None -> []

let fs_entry_bytes lookup b =
  String.init block_size (fun j ->
      match lookup (fs_data_var b j) with
      | Some (Repr.Str s) when String.length s = 1 -> s.[0]
      | _ -> '\000')

let fs_disk_bytes lookup b =
  match lookup (fs_disk_var b) with
  | Some (Repr.Str s) when s <> "" -> s
  | _ -> String.make block_size '\000'

let scanfs_viewdef : View.t =
  View.Full
    (fun lookup ->
      let block_bytes b =
        match lookup (fs_state_var b) with
        | Some (Repr.Str ("clean" | "dirty")) -> fs_entry_bytes lookup b
        | _ -> fs_disk_bytes lookup b
      in
      let file name =
        match fs_entry (lookup (fs_dir_var name)) with
        | None -> None
        | Some (len, blocks) ->
          let content = String.concat "" (List.map block_bytes blocks) in
          Some (Repr.Str name, Repr.Str (String.sub content 0 len))
      in
      View.canonical_of_assoc (List.filter_map file (List.sort_uniq compare (fs_names lookup))))

let scanfs_invariant : Checker.invariant =
  ( "clean cached file block matches disk",
    fun lookup ->
      let block_ok b =
        match lookup (fs_state_var b) with
        | Some (Repr.Str "clean") -> fs_entry_bytes lookup b = fs_disk_bytes lookup b
        | _ -> true
      in
      List.for_all
        (fun name ->
          match fs_entry (lookup (fs_dir_var name)) with
          | Some (_, blocks) -> List.for_all block_ok blocks
          | None -> true)
        (List.sort_uniq compare (fs_names lookup)) )

(* --- comparison ----------------------------------------------------------- *)

(* Feeds [events] to a replay and, at every commit, compares the memoized
   value of [view] with the [oracle] view computed from scratch (equal and
   printed alike), and each current invariant's verdict with its oracle's.
   Returns the number of commits compared, or the first mismatch. *)
let agree_at_every_commit events ~view ~oracle ~invariants =
  let replay = Replay.create () and eval = View.make_eval view in
  let from_scratch lookup = function
    | View.Full f -> f lookup
    | View.Keyed _ | View.Pair _ -> invalid_arg "the oracle views are Full"
  in
  let commits = ref 0 in
  let mismatch = ref None in
  Array.iteri
    (fun i ev ->
      match ev with
      | _ when !mismatch <> None -> ()
      | Event.Write { tid; var; value } -> Replay.write replay tid var value
      | Event.Block_begin { tid } -> Replay.block_begin replay tid
      | Event.Block_end { tid } -> Replay.block_end replay tid
      | Event.Commit { tid } ->
        Replay.commit replay tid;
        incr commits;
        let lookup = Replay.lookup replay in
        let a = View.recompute eval replay and b = from_scratch lookup oracle in
        if not (Repr.equal a b && Repr.to_string a = Repr.to_string b) then
          mismatch :=
            Some (Printf.sprintf "view at event %d: %s vs %s" i (Repr.to_string a)
                    (Repr.to_string b))
        else
          List.iter
            (fun (((name, current) : Checker.invariant), ((_, former) : Checker.invariant)) ->
              if current lookup <> former lookup then
                mismatch := Some (Printf.sprintf "invariant %S at event %d" name i))
            invariants
      | _ -> ())
    events;
  match !mismatch with Some m -> Error m | None -> Ok !commits
