(** Pipeline metrics: counters, high-water gauges and log2 histograms.

    One registry is shared by the log, the segment writer and every checker
    domain of a {!Farm}, so handles must be cheap from any domain: each is a
    single [Atomic.t] (or an array of them), registered once under a mutex
    and then updated lock-free on the hot path.

    Export is deterministic (names sorted) as either an aligned text table
    ({!pp}) or a single JSON document ({!to_json}) — the payload the
    [vyrd-check pipeline --metrics-json] flag and the CI artifact carry. *)

type t

val create : unit -> t

(** {1 Counters} — monotonically increasing totals (events logged, checked,
    dropped, commits, violations, stall nanoseconds). *)

type counter

(** [counter t name] registers (or retrieves) the counter called [name]. *)
val counter : t -> string -> counter

val incr : counter -> unit
val add : counter -> int -> unit
val value : counter -> int

(** {1 Gauges} — maximum-tracking levels (queue-depth high-water marks). *)

type gauge

val gauge : t -> string -> gauge

(** [record g v] raises the gauge to [v] if higher. *)
val record : gauge -> int -> unit

val gauge_value : gauge -> int

(** {1 Histograms} — power-of-two buckets over nonnegative integers
    (latencies in nanoseconds, batch sizes). *)

type histogram

val histogram : t -> string -> histogram

(** [observe h v] records [v].  Negative values are clamped to [0] {e and
    counted}: the first clamp registers a sibling counter named
    [<name>.clamped] in the histogram's registry (so registries that never
    clamp are unchanged), and {!pp}/{!to_json} surface it only when
    nonzero — a nonzero clamp count means an instrumentation bug upstream
    (e.g. a clock regression). *)
val observe : histogram -> int -> unit
val hist_count : histogram -> int
val hist_max : histogram -> int

(** [quantile h q] estimates the [q]-quantile (0 <= q <= 1) as the
    geometric midpoint of the bucket where the cumulative count crosses;
    [0] when empty. *)
val quantile : histogram -> float -> int

(** {1 Merging and snapshots}

    A cluster coordinator aggregates the registries of many workers into one
    view; these are the primitives of that scrape path. *)

(** [merge ~into src] folds every entry of [src] into [into]: counters add,
    gauges keep the maximum, histograms add bucket-wise (count and sum add,
    max keeps the maximum).  Entries missing from [into] are registered.
    Merging disjoint or overlapping registries is commutative and
    associative up to export equality.
    @raise Invalid_argument when a name is registered with one kind in
      [src] and another in [into]. *)
val merge : into:t -> t -> unit

(** [encode t] is a compact binary snapshot of the registry (sorted, so
    equal registries encode identically) — the payload a worker's status
    reply carries. *)
val encode : t -> string

(** [decode s] rebuilds a registry from {!encode} output.
    @raise Bincodec.Corrupt on malformed input. *)
val decode : string -> t

(** {1 Export} *)

val pp : Format.formatter -> t -> unit
val to_json : t -> string

(** RFC 8259 string escaping, the one every JSON emitter of the repo uses
    ({!to_json}, the detection matrix, [vyrd_check analyze --json]): quote,
    backslash and control characters become JSON escapes ([\u00XX] where
    no short form exists, DEL included); well-formed UTF-8 passes through;
    any other non-ASCII byte becomes [\u00XX] — unlike OCaml's
    [String.escaped], whose [\ddd] forms no JSON parser accepts. *)
val json_escape : string -> string
