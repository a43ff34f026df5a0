type counter = int Atomic.t
type gauge = int Atomic.t

type t = { lock : Mutex.t; entries : (string, entry) Hashtbl.t }

and entry = Counter of counter | Gauge of gauge | Histogram of histogram

and histogram = {
  buckets : int Atomic.t array;  (* bucket i counts values in [2^i, 2^(i+1)) *)
  h_count : int Atomic.t;
  h_sum : int Atomic.t;
  h_max : int Atomic.t;
  owner : t;  (* registry the histogram lives in, for the clamp counter *)
  hname : string;
}

let create () = { lock = Mutex.create (); entries = Hashtbl.create 32 }

(* Exception-safe, like [Ring.locked]: a kind-mismatched registration
   raises [Invalid_argument] from inside [f], and the registry must stay
   usable for every other domain and session thread. *)
let with_lock t f =
  Mutex.lock t.lock;
  match f () with
  | r ->
    Mutex.unlock t.lock;
    r
  | exception e ->
    Mutex.unlock t.lock;
    raise e

let counter t name =
  with_lock t (fun () ->
      match Hashtbl.find_opt t.entries name with
      | Some (Counter c) -> c
      | Some _ -> invalid_arg ("Metrics.counter: " ^ name ^ " is not a counter")
      | None ->
        let c = Atomic.make 0 in
        Hashtbl.add t.entries name (Counter c);
        c)

let incr c = Atomic.incr c

let add c n = ignore (Atomic.fetch_and_add c n)

let value c = Atomic.get c

let gauge t name =
  with_lock t (fun () ->
      match Hashtbl.find_opt t.entries name with
      | Some (Gauge g) -> g
      | Some _ -> invalid_arg ("Metrics.gauge: " ^ name ^ " is not a gauge")
      | None ->
        let g = Atomic.make 0 in
        Hashtbl.add t.entries name (Gauge g);
        g)

let rec record g v =
  let cur = Atomic.get g in
  if v > cur && not (Atomic.compare_and_set g cur v) then record g v

let gauge_value g = Atomic.get g

let n_buckets = 63

let histogram t name =
  with_lock t (fun () ->
      match Hashtbl.find_opt t.entries name with
      | Some (Histogram h) -> h
      | Some _ -> invalid_arg ("Metrics.histogram: " ^ name ^ " is not a histogram")
      | None ->
        let h =
          {
            buckets = Array.init n_buckets (fun _ -> Atomic.make 0);
            h_count = Atomic.make 0;
            h_sum = Atomic.make 0;
            h_max = Atomic.make 0;
            owner = t;
            hname = name;
          }
        in
        Hashtbl.add t.entries name (Histogram h);
        h)

let bucket_of v =
  if v <= 1 then 0
  else
    let rec go i n = if n <= 1 || i = n_buckets - 1 then i else go (i + 1) (n lsr 1) in
    go 0 v

let observe h v =
  (* A negative observation is an instrumentation bug (clock regression,
     bad subtraction); clamping silently would hide it, so count clamps in
     a sibling counter — registered only on the first clamp, so registries
     that never misbehave are unchanged. *)
  if v < 0 then incr (counter h.owner (h.hname ^ ".clamped"));
  let v = max 0 v in
  Atomic.incr h.buckets.(bucket_of v);
  Atomic.incr h.h_count;
  ignore (Atomic.fetch_and_add h.h_sum v);
  record h.h_max v

let hist_count h = Atomic.get h.h_count
let hist_max h = Atomic.get h.h_max

let quantile h q =
  let total = Atomic.get h.h_count in
  if total = 0 then 0
  else begin
    let target = int_of_float (ceil (q *. float_of_int total)) in
    let target = max 1 (min total target) in
    let acc = ref 0 in
    let result = ref (Atomic.get h.h_max) in
    (try
       for i = 0 to n_buckets - 1 do
         acc := !acc + Atomic.get h.buckets.(i);
         if !acc >= target then begin
           (* geometric midpoint of [2^i, 2^(i+1)) *)
           result := (if i = 0 then 1 else (1 lsl i) + (1 lsl (i - 1)));
           raise Exit
         end
       done
     with Exit -> ());
    min !result (Atomic.get h.h_max)
  end

(* --------------------------------------------------------------- merge *)

let merge ~into src =
  let entries =
    with_lock src (fun () ->
        Hashtbl.fold (fun name e acc -> (name, e) :: acc) src.entries [])
  in
  List.iter
    (fun (name, e) ->
      match e with
      | Counter c -> add (counter into name) (Atomic.get c)
      | Gauge g -> record (gauge into name) (Atomic.get g)
      | Histogram h ->
        let d = histogram into name in
        Array.iteri
          (fun i b -> ignore (Atomic.fetch_and_add d.buckets.(i) (Atomic.get b)))
          h.buckets;
        ignore (Atomic.fetch_and_add d.h_count (Atomic.get h.h_count));
        ignore (Atomic.fetch_and_add d.h_sum (Atomic.get h.h_sum));
        record d.h_max (Atomic.get h.h_max))
    entries

(* --------------------------------------------------------------- codec *)

(* [entry kind (1 byte) | name | values], entries sorted by name so equal
   registries encode identically.  Histogram buckets are sparse: most of the
   63 are empty on any real registry. *)

let encode t =
  let entries =
    with_lock t (fun () ->
        Hashtbl.fold (fun name e acc -> (name, e) :: acc) t.entries [])
    |> List.sort compare
  in
  let b = Bincodec.writer ~size:512 () in
  Bincodec.put_uvarint b (List.length entries);
  List.iter
    (fun (name, e) ->
      match e with
      | Counter c ->
        Bincodec.put_char b '\000';
        Bincodec.put_string b name;
        Bincodec.put_uvarint b (Atomic.get c)
      | Gauge g ->
        Bincodec.put_char b '\001';
        Bincodec.put_string b name;
        Bincodec.put_uvarint b (Atomic.get g)
      | Histogram h ->
        Bincodec.put_char b '\002';
        Bincodec.put_string b name;
        let filled = ref 0 in
        Array.iter (fun c -> if Atomic.get c > 0 then filled := !filled + 1) h.buckets;
        Bincodec.put_uvarint b !filled;
        Array.iteri
          (fun i c ->
            let v = Atomic.get c in
            if v > 0 then begin
              Bincodec.put_uvarint b i;
              Bincodec.put_uvarint b v
            end)
          h.buckets;
        Bincodec.put_uvarint b (Atomic.get h.h_count);
        Bincodec.put_uvarint b (Atomic.get h.h_sum);
        Bincodec.put_uvarint b (Atomic.get h.h_max))
    entries;
  Bincodec.contents b

let decode s =
  let corrupt msg = raise (Bincodec.Corrupt ("metrics snapshot: " ^ msg)) in
  let t = create () in
  let c = Bincodec.cursor s in
  let uvarint () = Bincodec.read_uvarint c in
  for _ = 1 to uvarint () do
    let kind = Bincodec.read_byte c "entry" in
    let name = Bincodec.read_string c in
    match kind with
    | '\000' -> add (counter t name) (uvarint ())
    | '\001' -> record (gauge t name) (uvarint ())
    | '\002' ->
      let h = histogram t name in
      for _ = 1 to uvarint () do
        let i = uvarint () in
        let v = uvarint () in
        if i < 0 || i >= n_buckets then corrupt "histogram bucket out of range";
        ignore (Atomic.fetch_and_add h.buckets.(i) v)
      done;
      let count = uvarint () in
      let sum = uvarint () in
      let mx = uvarint () in
      ignore (Atomic.fetch_and_add h.h_count count);
      ignore (Atomic.fetch_and_add h.h_sum sum);
      record h.h_max mx
    | k -> corrupt (Printf.sprintf "unknown entry kind 0x%02x" (Char.code k))
  done;
  if Bincodec.remaining c <> 0 then corrupt "trailing bytes";
  t

(* -------------------------------------------------------------- export *)

let sorted t =
  with_lock t (fun () ->
      Hashtbl.fold (fun name e acc -> (name, e) :: acc) t.entries [])
  |> List.sort compare

(* A [.clamped] sibling that never fired is noise in exports (it can appear
   at zero via [merge]/[decode] of a registry that had one); surface clamp
   counters only once they count something. *)
let hidden name = function
  | Counter c -> value c = 0 && String.ends_with ~suffix:".clamped" name
  | Gauge _ | Histogram _ -> false

let exported t = List.filter (fun (name, e) -> not (hidden name e)) (sorted t)

let pp ppf t =
  let entries = exported t in
  let counters = List.filter (function _, Counter _ -> true | _ -> false) entries in
  let gauges = List.filter (function _, Gauge _ -> true | _ -> false) entries in
  let hists = List.filter (function _, Histogram _ -> true | _ -> false) entries in
  let section title rows pr =
    if rows <> [] then begin
      Fmt.pf ppf "%s:@." title;
      List.iter (fun (name, e) -> pr name e) rows
    end
  in
  section "counters" counters (fun name e ->
      match e with
      | Counter c -> Fmt.pf ppf "  %-36s %12d@." name (value c)
      | _ -> ());
  section "gauges (high-water)" gauges (fun name e ->
      match e with
      | Gauge g -> Fmt.pf ppf "  %-36s %12d@." name (gauge_value g)
      | _ -> ());
  section "histograms" hists (fun name e ->
      match e with
      | Histogram h ->
        Fmt.pf ppf "  %-36s count %-9d p50 %-11d p99 %-11d max %d@." name
          (hist_count h) (quantile h 0.5) (quantile h 0.99) (hist_max h)
      | _ -> ())

(* OCaml's [String.escaped] emits [\ddd] decimal escapes — invalid JSON.
   Escape per RFC 8259: the two mandatory characters, the common C escapes,
   and [\u00XX] for every other control byte and DEL.  Well-formed UTF-8
   sequences (the lint's "§", say) pass through unchanged; any other byte
   outside ASCII becomes [\u00XX], which keeps the output parseable
   whatever encoding a string arrived in. *)
let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  let rec go i =
    if i < String.length s then begin
      let c = s.[i] in
      (* bytes of one well-formed multi-byte UTF-8 sequence, else 1 *)
      let width =
        let d = String.get_utf_8_uchar s i in
        if c >= '\128' && Uchar.utf_decode_is_valid d then Uchar.utf_decode_length d else 1
      in
      (match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | '\b' -> Buffer.add_string b "\\b"
      | '\012' -> Buffer.add_string b "\\f"
      | ' ' .. '~' -> Buffer.add_char b c
      | _ when width > 1 -> Buffer.add_substring b s i width
      | _ -> Printf.bprintf b "\\u%04x" (Char.code c));
      go (i + width)
    end
  in
  go 0;
  Buffer.contents b

let to_json t =
  let b = Buffer.create 1024 in
  let entries = exported t in
  let emit kind pr =
    let rows = List.filter (fun (_, e) -> kind e) entries in
    List.iteri
      (fun i (name, e) ->
        if i > 0 then Buffer.add_char b ',';
        Buffer.add_string b (Printf.sprintf "\"%s\":" (json_escape name));
        pr e)
      rows
  in
  Buffer.add_string b "{\"counters\":{";
  emit
    (function Counter _ -> true | _ -> false)
    (function
      | Counter c -> Buffer.add_string b (string_of_int (value c))
      | _ -> ());
  Buffer.add_string b "},\"gauges\":{";
  emit
    (function Gauge _ -> true | _ -> false)
    (function
      | Gauge g -> Buffer.add_string b (string_of_int (gauge_value g))
      | _ -> ());
  Buffer.add_string b "},\"histograms\":{";
  emit
    (function Histogram _ -> true | _ -> false)
    (function
      | Histogram h ->
        Buffer.add_string b
          (Printf.sprintf "{\"count\":%d,\"sum\":%d,\"max\":%d,\"p50\":%d,\"p90\":%d,\"p99\":%d}"
             (hist_count h) (Atomic.get h.h_sum) (hist_max h) (quantile h 0.5)
             (quantile h 0.9) (quantile h 0.99))
      | _ -> ());
  Buffer.add_string b "}}";
  Buffer.contents b
