(** Checking outcomes and diagnostics. *)

type exec = {
  e_tid : Vyrd_sched.Tid.t;
  e_mid : string;
  e_args : Repr.t list;
  e_ret : Repr.t option;  (** [None] if the return had not been logged yet *)
}

type violation =
  | Io_violation of { exec : exec; commit_ordinal : int; reason : string }
      (** the specification cannot take the committed transition (§4) *)
  | Observer_violation of { exec : exec; window : int * int }
      (** no specification state in the observer's call–return window admits
          the observed return value (§4.3); [window] is the inclusive range
          of state ordinals tested *)
  | View_violation of {
      exec : exec;
      commit_ordinal : int;
      view_i : Repr.t;
      view_s : Repr.t;
    }  (** [viewI <> viewS] at a commit action (§5) *)
  | Invariant_violation of { exec : exec; commit_ordinal : int; invariant : string }
      (** a user-supplied runtime invariant over the replayed implementation
          state failed at a commit action (§7.2.1) *)
  | Ill_formed of { event : Event.t option; reason : string }
      (** the log violates well-formedness (§3.2) or the commit-point
          annotations are inconsistent (§4.1) *)

type stats = {
  events_processed : int;
  methods_checked : int;
      (** method executions whose check completed before the first
          violation — the paper's time-to-detection unit (Table 1) *)
  commits_resolved : int;
  per_method : (string * int) list;
      (** executions checked per method name, sorted by name *)
  queue_high_water : int;
      (** peak occupancy of the event queue that fed this checker — [0] for
          offline checking (no queue); bounded by the configured capacity
          for the pipeline farm *)
}

type outcome = Pass | Fail of violation

type t = { outcome : outcome; stats : stats }

val is_pass : t -> bool
val pp_exec : Format.formatter -> exec -> unit
val pp_violation : Format.formatter -> violation -> unit
val pp : Format.formatter -> t -> unit

(** Short tag for tables: ["pass"], ["io"], ["observer"], ["view"],
    ["ill-formed"]. *)
val tag : t -> string
