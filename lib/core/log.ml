module Vec = Vyrd_sched.Vec

type level = [ `None | `Io | `View | `Full ]

type t = {
  lvl : level;
  events : Event.t Vec.t;
  lock : Mutex.t;
  listeners : (Event.t -> unit) Vec.t;
  dropped : int Atomic.t;
}

let create ?(level = `View) () =
  { lvl = level; events = Vec.create (); lock = Mutex.create (); listeners = Vec.create ();
    dropped = Atomic.make 0 }

let level t = t.lvl

let rank = function `None -> 0 | `Io -> 1 | `View -> 2 | `Full -> 3

let required : Event.t -> level = function
  | Event.Call _ | Event.Return _ | Event.Commit _ -> `Io
  | Event.Write _ | Event.Block_begin _ | Event.Block_end _ -> `View
  | Event.Read _ | Event.Acquire _ | Event.Release _ -> `Full

let admits lvl ev = rank lvl >= rank (required ev)
let records_io t = rank t.lvl >= rank `Io
let records_writes t = rank t.lvl >= rank `View
let records_reads t = rank t.lvl >= rank `Full

let locked t f =
  Mutex.lock t.lock;
  match f () with
  | v ->
    Mutex.unlock t.lock;
    v
  | exception e ->
    Mutex.unlock t.lock;
    raise e

(* The per-event path allocates nothing: it locks inline, where [locked]
   would build a closure, and binds each listener before calling it, where
   [(Vec.get t.listeners i) ev] would be an over-application that builds
   one too. *)
let append t ev =
  if admits t.lvl ev then begin
    Mutex.lock t.lock;
    match
      Vec.push t.events ev;
      for i = 0 to Vec.length t.listeners - 1 do
        let listener = Vec.get t.listeners i in
        listener ev
      done
    with
    | () -> Mutex.unlock t.lock
    | exception e ->
      Mutex.unlock t.lock;
      raise e
  end
  else Atomic.incr t.dropped

let length t = locked t (fun () -> Vec.length t.events)
let get t i = locked t (fun () -> Vec.get t.events i)
let dropped t = Atomic.get t.dropped
let events t = locked t (fun () -> Vec.to_list t.events)

let snapshot t =
  locked t (fun () -> Array.init (Vec.length t.events) (Vec.get t.events))

(* Events are append-only, so a traversal can release the lock between
   fixed-size batches: concurrent appends land behind the cursor and are
   picked up by a later batch, and the mutex is never held across user
   code — unlike the old [events]-based [iter], which copied the whole
   vector to a list under the lock on every call. *)
let fold f acc t =
  let chunk = 1024 in
  let rec go acc pos =
    let batch =
      locked t (fun () ->
          let n = Vec.length t.events in
          if pos >= n then []
          else Vec.sub_list t.events ~pos ~len:(min chunk (n - pos)))
    in
    match batch with
    | [] -> acc
    | l -> go (List.fold_left f acc l) (pos + List.length l)
  in
  go acc 0

let iter f t = fold (fun () ev -> f ev) () t
let subscribe t f = locked t (fun () -> Vec.push t.listeners f)

let level_to_string = function
  | `None -> "none"
  | `Io -> "io"
  | `View -> "view"
  | `Full -> "full"

let level_of_string = function
  | "none" -> Some `None
  | "io" -> Some `Io
  | "view" -> Some `View
  | "full" -> Some `Full
  | _ -> None

let header_prefix = "# vyrd-log level="

let to_channel oc t =
  output_string oc header_prefix;
  output_string oc (level_to_string t.lvl);
  output_char oc '\n';
  iter
    (fun ev ->
      output_string oc (Event.to_line ev);
      output_char oc '\n')
    t

let to_file path t =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> to_channel oc t)

let of_events evs =
  let t = create ~level:`Full () in
  List.iter (append t) evs;
  t

exception Parse_error of { line : int; message : string }

(* The header records the level the log was recorded at, so a deserialized
   log keeps its identity — `View-mode checking can then reject an
   `Io-recorded log instead of reporting spurious mismatches.  Headerless
   input (pre-header logs, hand-written event lists) reads at `Full so no
   event is ever dropped; '#' lines are comments either way. *)
let of_channel ic =
  let t = ref None in
  let get_log () =
    match !t with
    | Some log -> log
    | None ->
      let log = create ~level:`Full () in
      t := Some log;
      log
  in
  let lineno = ref 0 in
  (try
     while true do
       let line = String.trim (input_line ic) in
       incr lineno;
       if String.length line > 0 then
         if line.[0] = '#' then begin
           match
             if String.starts_with ~prefix:header_prefix line then
               level_of_string
                 (String.sub line (String.length header_prefix)
                    (String.length line - String.length header_prefix))
             else None
           with
           | Some lvl when !t = None -> t := Some (create ~level:lvl ())
           | Some _ | None -> ()
         end
         else
           match Event.of_line line with
           | ev -> append (get_log ()) ev
           | exception Repr.Parse_error message ->
             raise (Parse_error { line = !lineno; message })
     done
   with End_of_file -> ());
  get_log ()

let of_file path =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> of_channel ic)
