open Vyrd
module Farm = Vyrd_pipeline.Farm

type engine = [ `Coop | `Native ]

type t = {
  subjects : Subjects.t list;
  config : Harness.config;
  bug : bool;
  engine : engine;
}

let composite = [ Subjects.multiset_vector; Subjects.jvector; Subjects.string_buffer ]

let v ?(config = Harness.default) ?(bug = false) ?(engine = `Coop) subjects =
  { subjects; config; bug; engine }

let run_into ~log t =
  Harness.run_into ~native:(t.engine = `Native) ~log t.config
    (List.map (fun (s : Subjects.t) -> s.build ~bug:t.bug) t.subjects)

let log t =
  let log = Log.create ~level:t.config.log_level () in
  run_into ~log t;
  log

let product t =
  match t.subjects with
  | [] -> invalid_arg "Workload.product: no subjects"
  | (s0 : Subjects.t) :: rest ->
    List.fold_left
      (fun (spec, view) (s : Subjects.t) ->
        (Spec_compose.pair spec s.spec, Spec_compose.pair_views view s.view))
      (s0.spec, s0.view) rest

let checks_view : Log.level -> bool = function
  | `View | `Full -> true
  | `Io | `None -> false

let shards ?(invariants = false) t level =
  List.map
    (fun (s : Subjects.t) ->
      if checks_view level then
        Farm.shard ~mode:`View ~view:s.view
          ~invariants:(if invariants then s.invariants else [])
          s.name s.spec
      else Farm.shard ~mode:`Io s.name s.spec)
    t.subjects

let composite_shard t level =
  let spec, view = product t in
  if checks_view level then Farm.shard ~mode:`View ~view "composite" spec
  else Farm.shard ~mode:`Io "composite" spec

let reference t log =
  let spec, view = product t in
  if checks_view (Log.level log) then Checker.check_indexed ~mode:`View ~view log spec
  else Checker.check_indexed ~mode:`Io log spec
