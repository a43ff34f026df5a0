(** Cluster membership: the coordinator's table of attached workers.

    Tracks each worker's address, health state, and in-flight session count,
    and keeps a {!Hashring} over the currently-[Alive] subset.  Routing is
    consistent hashing with bounded loads: {!acquire} walks the ring order
    from the key's owner and places the session on the first alive worker
    with a free slot, so the owner wins whenever it has capacity and
    overflow spills deterministically to ring successors. *)

module Wire = Vyrd_net.Wire
module Metrics = Vyrd_pipeline.Metrics

type state =
  | Alive  (** serving; occupies ring points *)
  | Draining  (** finishing in-flight sessions; owns no new keys *)
  | Dead  (** unreachable or killed; owns no keys *)

type worker = {
  w_name : string;
  w_addr : Wire.addr;
  w_slots : int;  (** concurrent-session capacity *)
  mutable w_state : state;
  mutable w_busy : int;  (** sessions currently placed here *)
  mutable w_sessions : int;  (** sessions ever placed here *)
  mutable w_metrics : Metrics.t option;  (** last scraped snapshot *)
  mutable w_ctrl : Unix.file_descr option;  (** control connection *)
}

type t

(** [create ()] is an empty membership table.  [vnodes]/[seed] parameterise
    the ring exactly as in {!Hashring.create}. *)
val create : ?vnodes:int -> ?seed:int -> unit -> t

(** [add t ~name ~addr ~slots] attaches (or re-attaches, replacing state)
    a worker as [Alive] and rebuilds the ring.
    @raise Invalid_argument when [slots <= 0]. *)
val add : t -> name:string -> addr:Wire.addr -> slots:int -> worker

val find : t -> string -> worker option

(** All workers, sorted by name. *)
val workers : t -> worker list

val alive : t -> worker list

(** [mark t name state] updates the worker's state and rebuilds the ring
    when the state changed (no-op for unknown names). *)
val mark : t -> string -> state -> unit

(** The current ring over [Alive] workers (an immutable snapshot). *)
val ring : t -> Hashring.t

(** [acquire t ~key ~avoid] places a session: first alive worker in ring
    order from [key]'s owner with [w_busy < w_slots] and not in [avoid];
    increments its busy and lifetime counters.  [None] when every live
    worker is full or avoided — callers should retry, clearing [avoid]. *)
val acquire : t -> key:string -> avoid:string list -> worker option

(** Return a session slot taken by {!acquire}. *)
val release : t -> worker -> unit
