open Vyrd
module Tid = Vyrd_sched.Tid
module Pass = Vyrd_analysis.Pass
module Lockgraph = Vyrd_analysis.Lockgraph
module Metrics = Vyrd_pipeline.Metrics

(* ------------------------------------------------------------- formulas *)

type f =
  | Tt
  | Ff
  | Atom of string * (Event.t -> bool)
  | Not of f
  | And of f * f
  | Or of f * f
  | Next of f
  | Until of f * f
  | Always of f
  | Eventually of f
  | Within of int * f

(* Structural equality with atoms compared by name; used by the smart
   constructors to fold idempotent conjunctions so progressed formulas stay
   small (an [always] progressed twice is the same formula, not a chain). *)
let rec equal_f a b =
  match (a, b) with
  | Tt, Tt | Ff, Ff -> true
  | Atom (n, _), Atom (m, _) -> String.equal n m
  | Not a, Not b | Next a, Next b | Always a, Always b | Eventually a, Eventually b
    -> equal_f a b
  | And (a1, a2), And (b1, b2)
  | Or (a1, a2), Or (b1, b2)
  | Until (a1, a2), Until (b1, b2) -> equal_f a1 b1 && equal_f a2 b2
  | Within (i, a), Within (j, b) -> i = j && equal_f a b
  | _ -> false

let tt = Tt
let ff = Ff
let atom name p = Atom (name, p)

(* Only the boolean layer folds constants: temporal operators over constants
   are NOT equivalent to constants on the empty trace ([eventually tt] needs
   a position to exist, [always ff] holds of the empty suffix), and the
   incremental/reference agreement property would catch any such shortcut. *)
let not_ = function Tt -> Ff | Ff -> Tt | Not f -> f | f -> Not f

let and_ a b =
  match (a, b) with
  | Ff, _ | _, Ff -> Ff
  | Tt, f | f, Tt -> f
  | a, b -> if equal_f a b then a else And (a, b)

let or_ a b =
  match (a, b) with
  | Tt, _ | _, Tt -> Tt
  | Ff, f | f, Ff -> f
  | a, b -> if equal_f a b then a else Or (a, b)

let implies a b = or_ (not_ a) b
let next f = Next f
let until a b = Until (a, b)
let eventually f = Eventually f
let always f = Always f
let within n f = if n <= 0 then Ff else Within (n, f)

let is_tt = function Tt -> true | _ -> false
let is_ff = function Ff -> true | _ -> false

let rec pp_f ppf f =
  let atomic = function Tt | Ff | Atom _ -> true | _ -> false in
  let pp_sub ppf g =
    if atomic g then pp_f ppf g else Fmt.pf ppf "(%a)" pp_f g
  in
  match f with
  | Tt -> Fmt.string ppf "true"
  | Ff -> Fmt.string ppf "false"
  | Atom (n, _) -> Fmt.string ppf n
  | Not g -> Fmt.pf ppf "!%a" pp_sub g
  | And (a, b) -> Fmt.pf ppf "%a & %a" pp_sub a pp_sub b
  | Or (a, b) -> Fmt.pf ppf "%a | %a" pp_sub a pp_sub b
  | Next g -> Fmt.pf ppf "X %a" pp_sub g
  | Until (a, b) -> Fmt.pf ppf "%a U %a" pp_sub a pp_sub b
  | Always g -> Fmt.pf ppf "G %a" pp_sub g
  | Eventually g -> Fmt.pf ppf "F %a" pp_sub g
  | Within (n, g) -> Fmt.pf ppf "within %d %a" n pp_sub g

(* Formula progression (Havelund/Rosu-style rewriting): [prog f ev] is the
   obligation on the rest of the stream given that [ev] happened now.  The
   expansion laws are the standard LTLf fixpoints; collapse to [Tt]/[Ff]
   happens in the smart constructors. *)
let rec prog f (ev : Event.t) =
  match f with
  | Tt -> Tt
  | Ff -> Ff
  | Atom (_, p) -> if p ev then Tt else Ff
  | Not g -> not_ (prog g ev)
  | And (a, b) -> and_ (prog a ev) (prog b ev)
  | Or (a, b) -> or_ (prog a ev) (prog b ev)
  | Next g -> g
  | Until (a, b) -> or_ (prog b ev) (and_ (prog a ev) f)
  | Always g -> and_ (prog g ev) f
  | Eventually g -> or_ (prog g ev) f
  | Within (n, g) ->
    let now = prog g ev in
    if n <= 1 then now else or_ now (Within (n - 1, g))

(* Finite-trace resolution: does [f] hold of the empty suffix?  Pending
   existential obligations fail, universal ones succeed. *)
let rec ended = function
  | Tt | Always _ -> true
  | Ff | Atom _ | Next _ | Until _ | Eventually _ | Within _ -> false
  | Not g -> not (ended g)
  | And (a, b) -> ended a && ended b
  | Or (a, b) -> ended a || ended b

(* Reference whole-trace evaluator — the executable spec the incremental
   engine is differentially tested against. *)
let eval f trace =
  let n = Array.length trace in
  let rec sat i f =
    if i >= n then ended f
    else
      match f with
      | Tt -> true
      | Ff -> false
      | Atom (_, p) -> p trace.(i)
      | Not g -> not (sat i g)
      | And (a, b) -> sat i a && sat i b
      | Or (a, b) -> sat i a || sat i b
      | Next g -> sat (i + 1) g
      | Until (a, b) -> sat i b || (sat i a && sat (i + 1) f)
      | Always g -> sat i g && sat (i + 1) f
      | Eventually g -> sat i g || sat (i + 1) f
      | Within (k, g) -> sat i g || (k > 1 && sat (i + 1) (Within (k - 1, g)))
  in
  sat 0 f

(* Which sub-formula is to blame?  [f] progressed to [Ff] on [ev]; descend
   toward a smallest responsible conjunct so the witness names the failing
   obligation, not the whole property. *)
let rec blame f ev =
  match f with
  | And (a, b) ->
    if is_ff (prog a ev) then blame a ev
    else if is_ff (prog b ev) then blame b ev
    else f
  | Always g -> if is_ff (prog g ev) then blame g ev else f
  | Within (n, g) when n <= 1 -> if is_ff (prog g ev) then blame g ev else f
  | f -> f

(* Same, for end-of-stream: a smallest conjunct with [ended = false]. *)
let rec blame_end f =
  match f with
  | And (a, b) -> if not (ended a) then blame_end a else blame_end b
  | Always g -> if not (ended g) then blame_end g else f
  | f -> f

(* ------------------------------------------------------------- verdicts *)

type witness = {
  at : int;
  tid : Tid.t option;
  failed : string;
  detail : string option;
}

type verdict = Sat | Viol of witness | Pending

let pp_witness ppf w =
  Fmt.pf ppf "@%d%a: %s%a" w.at
    Fmt.(option (fun ppf t -> pf ppf " %s" (Tid.to_string t)))
    w.tid w.failed
    Fmt.(option (fun ppf d -> pf ppf " — %s" d))
    w.detail

(* ------------------------------------------------------------- monitors *)

type instance = {
  i_name : string;
  mutable state : f;
  mutable i_verdict : verdict;
  relevant : unit -> bool;
      (* can any of this instance's atoms be non-false on the current event?
         Read after the hook ran; [false] means progression is the identity
         (the packs' states are fixpoints of all-atoms-false progression),
         so the tree walk is skipped.  Always [true] for formula monitors. *)
  detail_of : unit -> string option;
  anchor : unit -> (int * Tid.t option) option;
      (* end-of-stream witness override: packs point at the unmatched
         acquire rather than the stream length *)
}

type t = {
  m_name : string;
  mutable insts : instance list;
  mutable n_fed : int;
  interest : Event.t -> bool;
      (* event kinds the monitor reacts to at all; anything else only bumps
         the position counter.  The built-in packs key exclusively on lock
         events, so [`View]-level streams cost them almost nothing. *)
  hook : (t -> Event.t -> unit) option;
      (* pack state update, run before progression so spawned instances and
         per-event atom flags see the current event *)
  mutable finished : bool;
}

let no_detail () = None
let no_anchor () = None
let always_relevant () = true
let any_event (_ : Event.t) = true
let lock_events = function Event.Acquire _ | Event.Release _ -> true | _ -> false

let add_instance ?(relevant = always_relevant) ?(detail_of = no_detail)
    ?(anchor = no_anchor) t ~name f =
  let inst =
    { i_name = name; state = f; i_verdict = Pending; relevant; detail_of;
      anchor }
  in
  t.insts <- inst :: t.insts;
  inst

let of_formula ~name f =
  let t =
    { m_name = name; insts = []; n_fed = 0; interest = any_event; hook = None;
      finished = false }
  in
  ignore (add_instance t ~name f);
  t

let name t = t.m_name
let fed t = t.n_fed

let feed t ev =
  if not t.finished then begin
    if t.interest ev then begin
      (match t.hook with Some h -> h t ev | None -> ());
      let idx = t.n_fed in
      List.iter
        (fun inst ->
          match inst.i_verdict with
          | Pending when inst.relevant () ->
            let st = prog inst.state ev in
            if is_tt st then inst.i_verdict <- Sat
            else if is_ff st then
              inst.i_verdict <-
                Viol
                  {
                    at = idx;
                    tid = Some (Event.tid ev);
                    failed = Fmt.str "%a" pp_f (blame inst.state ev);
                    detail = inst.detail_of ();
                  };
            inst.state <- st
          | Pending | Sat | Viol _ -> ())
        t.insts
    end;
    t.n_fed <- t.n_fed + 1
  end

let violations t =
  List.filter_map
    (fun i -> match i.i_verdict with Viol w -> Some w | _ -> None)
    t.insts
  |> List.sort (fun a b -> compare a.at b.at)

let verdict t =
  match violations t with
  | w :: _ -> Viol w
  | [] ->
    let all_sat =
      t.insts <> []
      && List.for_all (fun i -> i.i_verdict = Sat) t.insts
    in
    if t.finished then if all_sat || t.insts = [] then Sat else Pending
    else if all_sat && t.hook = None then Sat
      (* a pack may still spawn obligations; never early-Sat those *)
    else Pending

let finish t =
  if not t.finished then begin
    t.finished <- true;
    List.iter
      (fun inst ->
        match inst.i_verdict with
        | Pending ->
          if ended inst.state then inst.i_verdict <- Sat
          else begin
            let at, tid =
              match inst.anchor () with
              | Some (a, tid) -> (a, tid)
              | None -> (t.n_fed, None)
            in
            inst.i_verdict <-
              Viol
                {
                  at;
                  tid;
                  failed = Fmt.str "%a" pp_f (blame_end inst.state);
                  detail = inst.detail_of ();
                }
          end
        | Sat | Viol _ -> ())
      t.insts
  end;
  verdict t

(* --------------------------------------------- built-in: lock reversal *)

(* Dynamic twin of the static {!Vyrd_analysis.Lockgraph}, reading its
   incremental lock-order core: a lock pair is convicted the moment one of
   its edges gains a witness that {!Lockgraph.reversal} pairs with a witness
   of the opposite edge (distinct threads, no common gate lock), so the two
   analyses agree on two-lock cycles by construction. *)

let lock_reversal () =
  let graph = Lockgraph.create () in
  (* one instance per unordered lock pair seen, with its conviction flag *)
  let convicted : (string * string, bool ref) Hashtbl.t = Hashtbl.create 8 in
  let flag = ref None (* pair convicted by the current event, if any *) in
  let last_detail = ref None in
  let describe (earlier : Lockgraph.witness) earlier_dst
      (now : Lockgraph.witness) now_dst =
    Fmt.str
      "%s acquired %s @%d holding {%s}; %s acquired %s @%d holding {%s}"
      (Tid.to_string earlier.tid) earlier_dst earlier.index
      (String.concat ", " earlier.held)
      (Tid.to_string now.tid) now_dst now.index
      (String.concat ", " now.held)
  in
  let spawn t ((lo, hi) as key) =
    let name = Fmt.str "reversal(%s,%s)" lo hi in
    ignore
      (add_instance t ~name
         ~relevant:(fun () -> !flag = Some key)
         ~detail_of:(fun () -> !last_detail)
         (always (not_ (atom name (fun _ -> !flag = Some key)))))
  in
  let hook t ev =
    flag := None;
    match ev with
    | Event.Acquire { tid; lock } ->
      List.iter
        (fun (src, w) ->
          let key = if src < lock then (src, lock) else (lock, src) in
          let c =
            match Hashtbl.find_opt convicted key with
            | Some c -> c
            | None ->
              let c = ref false in
              Hashtbl.add convicted key c;
              spawn t key;
              c
          in
          if not !c then
            match Lockgraph.reversal graph ~src ~dst:lock w with
            | Some w' ->
              c := true;
              flag := Some key;
              (* the opposite edge acquired [src] while holding [lock] *)
              last_detail := Some (describe w' src w lock)
            | None -> ())
        (Lockgraph.acquire graph ~index:t.n_fed tid lock)
    | Event.Release { tid; lock } -> Lockgraph.release graph tid lock
    | _ -> ()
  in
  { m_name = "lock-reversal"; insts = []; n_fed = 0; interest = lock_events;
    hook = Some hook; finished = false }

(* ---------------------------------------------- built-in: resource leak *)

type rl_lock = {
  mutable depth : int;
  mutable holder : Tid.t option;
  mutable acq_idx : int;
}

let resource_leak () =
  let locks : (string, rl_lock) Hashtbl.t = Hashtbl.create 8 in
  (* per-event atom inputs, set by the hook before progression *)
  let outer_acq = ref None and final_rel = ref None in
  let still_held () =
    Hashtbl.fold
      (fun name lk acc ->
        if lk.depth > 0 then
          Fmt.str "%s (%s, acquired @%d)" name
            (match lk.holder with Some t -> Tid.to_string t | None -> "?")
            lk.acq_idx
          :: acc
        else acc)
      locks []
    |> List.sort compare
  in
  let detail_of () =
    match still_held () with
    | [] -> None
    | held -> Some ("still held at end: " ^ String.concat ", " held)
  in
  let spawn t lock lk =
    let acq = atom (Fmt.str "acquire(%s)" lock) (fun _ -> !outer_acq = Some lock) in
    let rel = atom (Fmt.str "release(%s)" lock) (fun _ -> !final_rel = Some lock) in
    ignore
      (add_instance t
         ~name:(Fmt.str "leak(%s)" lock)
         ~relevant:(fun () -> !outer_acq = Some lock || !final_rel = Some lock)
         ~detail_of
         ~anchor:(fun () ->
           if lk.depth > 0 then Some (lk.acq_idx, lk.holder) else None)
         (always (implies acq (eventually rel))))
  in
  let hook t ev =
    outer_acq := None;
    final_rel := None;
    match ev with
    | Event.Acquire { tid; lock } ->
      let lk =
        match Hashtbl.find_opt locks lock with
        | Some lk -> lk
        | None ->
          let lk = { depth = 0; holder = None; acq_idx = 0 } in
          Hashtbl.add locks lock lk;
          spawn t lock lk;
          lk
      in
      if lk.depth = 0 then begin
        lk.holder <- Some tid;
        lk.acq_idx <- t.n_fed;
        outer_acq := Some lock
      end;
      lk.depth <- lk.depth + 1
    | Event.Release { lock; _ } -> (
      match Hashtbl.find_opt locks lock with
      | Some lk when lk.depth > 0 ->
        lk.depth <- lk.depth - 1;
        if lk.depth = 0 then begin
          lk.holder <- None;
          final_rel := Some lock
        end
      | Some _ | None -> ())
    | _ -> ()
  in
  { m_name = "resource-leak"; insts = []; n_fed = 0; interest = lock_events;
    hook = Some hook; finished = false }

let builtins () = [ lock_reversal (); resource_leak () ]
let builtin_names = [ "lock-reversal"; "resource-leak" ]

(* --------------------------------------------------------------- parser *)

(* formula := or ('->' formula)?          right-assoc implication
   or      := and ('|' and)*
   and     := until ('&' until)*
   until   := unary ('U' until)?
   unary   := ('!'|'X'|'F'|'G') unary | 'within' INT unary | primary
   primary := '(' formula ')' | 'true' | 'false' | atom
   atom    := KIND '(' raw ')' | 'commit' | 'any'                       *)

type token = Sym of char | Arrow | Word of string | Int of int

exception Parse of string

let lex s =
  let n = String.length s in
  let toks = ref [] in
  let i = ref 0 in
  let word_char c =
    (c >= 'a' && c <= 'z')
    || (c >= 'A' && c <= 'Z')
    || (c >= '0' && c <= '9')
    || c = '_' || c = '.'
  in
  while !i < n do
    let c = s.[!i] in
    if c = ' ' || c = '\t' || c = '\n' then incr i
    else if c = '(' || c = ')' || c = '!' || c = '&' || c = '|' then begin
      toks := Sym c :: !toks;
      incr i
    end
    else if c = '-' && !i + 1 < n && s.[!i + 1] = '>' then begin
      toks := Arrow :: !toks;
      i := !i + 2
    end
    else if c >= '0' && c <= '9' then begin
      let j = ref !i in
      while !j < n && s.[!j] >= '0' && s.[!j] <= '9' do incr j done;
      toks := Int (int_of_string (String.sub s !i (!j - !i))) :: !toks;
      i := !j
    end
    else if word_char c then begin
      let j = ref !i in
      while !j < n && word_char s.[!j] do incr j done;
      toks := Word (String.sub s !i (!j - !i)) :: !toks;
      i := !j
    end
    else raise (Parse (Fmt.str "unexpected character %C" c))
  done;
  List.rev !toks

let event_atom kind arg =
  let open Event in
  match kind with
  | "call" -> atom (Fmt.str "call(%s)" arg) (function
      | Call { mid; _ } -> mid = arg
      | _ -> false)
  | "return" -> atom (Fmt.str "return(%s)" arg) (function
      | Return { mid; _ } -> mid = arg
      | _ -> false)
  | "acquire" -> atom (Fmt.str "acquire(%s)" arg) (function
      | Acquire { lock; _ } -> lock = arg
      | _ -> false)
  | "release" -> atom (Fmt.str "release(%s)" arg) (function
      | Release { lock; _ } -> lock = arg
      | _ -> false)
  | "read" -> atom (Fmt.str "read(%s)" arg) (function
      | Read { var; _ } -> var = arg
      | _ -> false)
  | "write" -> atom (Fmt.str "write(%s)" arg) (function
      | Write { var; _ } -> var = arg
      | _ -> false)
  | k -> raise (Parse (Fmt.str "unknown atom kind %S" k))

let atom_kinds = [ "call"; "return"; "acquire"; "release"; "read"; "write" ]

let parse spec =
  let toks = ref [] in
  let peek () = match !toks with [] -> None | t :: _ -> Some t in
  let advance () = match !toks with [] -> () | _ :: r -> toks := r in
  let expect sym what =
    match peek () with
    | Some (Sym c) when c = sym -> advance ()
    | _ -> raise (Parse ("expected " ^ what))
  in
  let rec formula () =
    let a = disj () in
    match peek () with
    | Some Arrow ->
      advance ();
      implies a (formula ())
    | _ -> a
  and disj () =
    let a = ref (conj ()) in
    let rec go () =
      match peek () with
      | Some (Sym '|') ->
        advance ();
        a := or_ !a (conj ());
        go ()
      | _ -> ()
    in
    go ();
    !a
  and conj () =
    let a = ref (until_p ()) in
    let rec go () =
      match peek () with
      | Some (Sym '&') ->
        advance ();
        a := and_ !a (until_p ());
        go ()
      | _ -> ()
    in
    go ();
    !a
  and until_p () =
    let a = unary () in
    match peek () with
    | Some (Word ("U" | "until")) ->
      advance ();
      until a (until_p ())
    | _ -> a
  and unary () =
    match peek () with
    | Some (Sym '!') ->
      advance ();
      not_ (unary ())
    | Some (Word ("X" | "next")) ->
      advance ();
      next (unary ())
    | Some (Word ("F" | "eventually")) ->
      advance ();
      eventually (unary ())
    | Some (Word ("G" | "always")) ->
      advance ();
      always (unary ())
    | Some (Word "within") -> (
      advance ();
      match peek () with
      | Some (Int n) ->
        advance ();
        within n (unary ())
      | _ -> raise (Parse "within needs a bound: within N f"))
    | _ -> primary ()
  and primary () =
    match peek () with
    | Some (Sym '(') ->
      advance ();
      let a = formula () in
      expect ')' "')'";
      a
    | Some (Word "true") ->
      advance ();
      tt
    | Some (Word "false") ->
      advance ();
      ff
    | Some (Word "commit") ->
      advance ();
      atom "commit" (function Event.Commit _ -> true | _ -> false)
    | Some (Word "any") ->
      advance ();
      atom "any" (fun _ -> true)
    | Some (Word k) when List.mem k atom_kinds -> (
      advance ();
      expect '(' "'(' after atom kind";
      match peek () with
      | Some (Word arg) -> (
        advance ();
        match peek () with
        | Some (Sym ')') ->
          advance ();
          event_atom k arg
        | _ -> raise (Parse ("unterminated " ^ k ^ "(...) atom")))
      | _ -> raise (Parse (k ^ "(...) needs a name")))
    | Some (Word w) -> raise (Parse (Fmt.str "unknown word %S" w))
    | Some (Int _) -> raise (Parse "unexpected number")
    | Some Arrow | Some (Sym _) -> raise (Parse "unexpected operator")
    | None -> raise (Parse "unexpected end of formula")
  in
  match lex spec with
  | exception Parse msg -> Error msg
  | lexed -> (
    toks := lexed;
    match formula () with
    | f -> if !toks <> [] then Error "trailing tokens after formula" else Ok f
    | exception Parse msg -> Error msg)

let of_spec s =
  match s with
  | "lock-reversal" -> Ok (lock_reversal ())
  | "resource-leak" -> Ok (resource_leak ())
  | spec -> (
    match parse spec with
    | Ok f -> Ok (of_formula ~name:spec f)
    | Error msg -> Error (Fmt.str "--monitor %S: %s" spec msg))

(* -------------------------------------------------- analysis-lane pass *)

let pass ?metrics monitors =
  let pname = "monitor" in
  let fed_events = ref 0 in
  {
    Pass.name = pname;
    feed =
      (fun ev ->
        incr fed_events;
        List.iter (fun m -> feed m ev) monitors);
    finish =
      (fun () ->
        let diags =
          List.concat_map
            (fun m ->
              ignore (finish m);
              List.map
                (fun w ->
                  {
                    Pass.pass = pname;
                    id = name m;
                    severity = `Error;
                    position = w.at;
                    tid = w.tid;
                    text =
                      Fmt.str "%s violated: %s%s" (name m) w.failed
                        (match w.detail with
                        | Some d -> " — " ^ d
                        | None -> "");
                  })
                (violations m))
            monitors
        in
        (match metrics with
        | None -> ()
        | Some reg ->
          let add n v = Metrics.add (Metrics.counter reg n) v in
          add "analysis.monitor_events" !fed_events;
          add "analysis.monitor_violations" (List.length diags);
          List.iter
            (fun m ->
              let nv = List.length (violations m) in
              add (Fmt.str "analysis.monitor.%s.violations" (name m)) nv;
              add
                (match verdict m with
                | Sat -> "analysis.monitor_sat"
                | Viol _ -> "analysis.monitor_viol"
                | Pending -> "analysis.monitor_pending")
                1)
            monitors);
        Pass.summarize ~pass:pname ~events:!fed_events diags);
  }

(* ------------------------------------------------------ schedule search *)

type search_outcome = {
  schedules : int;
  exhausted : bool;
  violation : (string * witness) option;
  schedule : int array option;
}

let first_violation ?max_schedules ?max_steps ?preemption_bound ~monitors
    scenario =
  let found = ref None in
  let current_log = ref (fun () -> None) in
  let make_main () =
    let main, log_of = scenario () in
    current_log := log_of;
    main
  in
  let flagged () =
    match !current_log () with
    | None -> false (* run did not complete (e.g. deadlocked) *)
    | Some log ->
      let ms = monitors () in
      Log.iter (fun ev -> List.iter (fun m -> feed m ev) ms) log;
      List.exists
        (fun m ->
          match finish m with
          | Viol w ->
            if !found = None then found := Some (name m, w);
            true
          | Sat | Pending -> false)
        ms
  in
  let r =
    Vyrd_sched.Explore.explore ?max_schedules ?max_steps ?preemption_bound
      ~flagged
      ~stop:(fun () -> !found <> None)
      make_main
  in
  {
    schedules = r.Vyrd_sched.Explore.schedules;
    exhausted = r.Vyrd_sched.Explore.exhausted;
    violation = !found;
    schedule = r.Vyrd_sched.Explore.first_flagged;
  }
