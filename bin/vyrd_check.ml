(* vyrd-check: record instrumented executions of the benchmark subjects and
   check serialized logs offline — the paper's two-phase architecture split
   into two processes.

     dune exec bin/vyrd_check.exe -- subjects
     dune exec bin/vyrd_check.exe -- record --subject Cache --bug -o cache.log
     dune exec bin/vyrd_check.exe -- check --subject Cache --mode view cache.log
     dune exec bin/vyrd_check.exe -- analyze --json cache.log
*)

open Vyrd
open Vyrd_harness
open Cmdliner

let subject_names = List.map (fun (s : Subjects.t) -> s.name) Subjects.all

let subject_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "subject"; "s" ] ~docv:"NAME" ~doc:"Benchmark subject to use.")

let resolve name =
  match Subjects.find name with
  | s -> s
  | exception Not_found ->
    Fmt.epr "unknown subject %S; one of: %a@." name
      Fmt.(list ~sep:comma string)
      subject_names;
    exit 2

module Segment = Vyrd_pipeline.Segment
module Metrics = Vyrd_pipeline.Metrics
module Farm = Vyrd_pipeline.Farm
module Resume = Vyrd_pipeline.Resume
module Wire = Vyrd_net.Wire
module Server = Vyrd_net.Server
module Client = Vyrd_net.Client
module Coordinator = Vyrd_cluster.Coordinator
module Supervisor = Vyrd_cluster.Supervisor
module Lin = Vyrd_lin.Backend
module Monitor = Vyrd_monitor.Monitor
module Faults = Vyrd_faults.Faults

(* Oracle selection shared by check and pipeline: the paper's
   commit-annotation refinement checker, the annotation-free JIT
   linearizability backend of lib/lin, or both side by side. *)
let backend_arg =
  Arg.(
    value
    & opt
        (enum [ ("refinement", `Refinement); ("lin", `Lin); ("both", `Both) ])
        `Refinement
    & info [ "backend" ] ~docv:"BACKEND"
        ~doc:
          "Oracle(s) to run: $(b,refinement) (the commit-annotation checker), \
           $(b,lin) (the annotation-free JIT linearizability backend over \
           calls and returns only), or $(b,both) side by side with an \
           agreement report.")

let lin_budget_arg =
  Arg.(
    value & opt int 1_000_000
    & info [ "lin-budget" ] ~docv:"N"
        ~doc:"Search-node budget per structure for the lin backend.")

(* Shared by check, pipeline and serve: temporal monitors over the event
   stream.  Specs are validated eagerly so a typo fails fast with a parse
   error, but monitors themselves are built fresh per use (they are
   stateful). *)
let monitor_arg =
  Arg.(
    value
    & opt_all string []
    & info [ "monitor" ] ~docv:"SPEC"
        ~doc:
          "Attach a streaming temporal-property monitor: a built-in pack \
           name ($(b,lock-reversal), $(b,resource-leak)) or a formula in \
           the tiny LTL syntax, e.g. $(b,\"G (call(Insert) -> F \
           return(Insert))\").  Repeatable; any violation makes the exit \
           status 1.")

(* Validate every spec up front; return a factory building fresh monitors. *)
let monitor_factory specs =
  List.iter
    (fun spec ->
      match Monitor.of_spec spec with
      | Ok _ -> ()
      | Error msg ->
        Fmt.epr "--monitor %s: %s@." spec msg;
        (match specs with
        | _ :: _ ->
          Fmt.epr "built-in packs: %a@."
            Fmt.(list ~sep:comma string)
            Monitor.builtin_names
        | [] -> ());
        exit 2)
    specs;
  fun () ->
    List.map
      (fun spec ->
        match Monitor.of_spec spec with
        | Ok m -> m
        | Error msg -> failwith msg (* unreachable: validated above *))
      specs

(* Load a serialized log, sniffing the binary segment format by magic.
   Text-format errors come out as positioned [file:line] diagnostics; a
   binary prefix with a crash-torn tail loads with a warning. *)
let load_log file =
  if Sys.file_exists file && not (Segment.is_binary file) then (
    match Log.of_file file with
    | log -> log
    | exception Log.Parse_error { line; message } ->
      Fmt.epr "%s:%d: %s@." file line message;
      exit 2)
  else
    match Segment.read_prefix file with
    | r ->
      if r.Segment.truncated then
        Fmt.epr
          "warning: %s: torn tail discarded; %d whole segments (%d events) \
           recovered@."
          file r.Segment.segments
          (Log.length r.Segment.log);
      r.Segment.log
    | exception Vyrd_pipeline.Bincodec.Corrupt msg ->
      Fmt.epr "%s@." msg;
      exit 2
    | exception Sys_error msg ->
      Fmt.epr "%s@." msg;
      exit 2

let list_cmd =
  let run () =
    List.iter
      (fun (s : Subjects.t) -> Fmt.pr "%-22s %s@." s.name s.bug_description)
      Subjects.all
  in
  Cmd.v (Cmd.info "subjects" ~doc:"List the benchmark subjects.")
    Term.(const run $ const ())

let record_cmd =
  let out =
    Arg.(
      required
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Where to write the log.")
  in
  let seed = Arg.(value & opt int 0 & info [ "seed" ] ~docv:"N") in
  let threads = Arg.(value & opt int 4 & info [ "threads" ] ~docv:"N") in
  let ops = Arg.(value & opt int 50 & info [ "ops" ] ~docv:"N" ~doc:"Calls per thread.") in
  let bug = Arg.(value & flag & info [ "bug" ] ~doc:"Enable the subject's injected bug.") in
  let level =
    Arg.(
      value
      & opt (enum [ ("io", `Io); ("view", `View); ("full", `Full) ]) `View
      & info [ "level" ] ~docv:"LEVEL" ~doc:"Logging granularity (io, view, full).")
  in
  let binary =
    Arg.(
      value & flag
      & info [ "binary" ]
          ~doc:"Stream the compact binary segment format instead of text.")
  in
  let rotate =
    Arg.(
      value
      & opt (some int) None
      & info [ "rotate-bytes" ] ~docv:"N"
          ~doc:"Rotate binary segment files at ~$(docv) bytes (implies --binary).")
  in
  let run subject out seed threads ops bug level binary rotate =
    let subject = resolve subject in
    let cfg =
      { Harness.default with seed; threads; ops_per_thread = ops; log_level = level }
    in
    let buggy = if bug then " (buggy)" else "" in
    if binary || rotate <> None then begin
      (* stream to disk while the workload runs instead of spooling a full
         in-memory log first *)
      let log = Log.create ~level () in
      let w = Segment.create_writer ?rotate_bytes:rotate ~level out in
      Segment.attach w log;
      Harness.run_into ~log cfg [ subject.build ~bug ];
      Segment.close w;
      Fmt.pr "recorded %d events of %s%s to %s (%d file(s), %d segments, %d bytes)@."
        (Log.length log) subject.name buggy out
        (List.length (Segment.writer_files w))
        (Segment.writer_segments w) (Segment.writer_bytes w)
    end
    else begin
      let log = Harness.run cfg (subject.build ~bug) in
      Log.to_file out log;
      Fmt.pr "recorded %d events of %s%s to %s@." (Log.length log) subject.name
        buggy out
    end
  in
  Cmd.v
    (Cmd.info "record"
       ~doc:"Run a random workload (paper §7.1) and serialize its log.")
    Term.(
      const run $ subject_arg $ out $ seed $ threads $ ops $ bug $ level $ binary
      $ rotate)

let check_cmd =
  let file = Arg.(required & pos 0 (some string) None & info [] ~docv:"LOG") in
  let mode =
    Arg.(
      value
      & opt (enum [ ("io", `Io); ("view", `View) ]) `View
      & info [ "mode" ] ~docv:"MODE" ~doc:"Refinement notion to check (io or view).")
  in
  let invariants =
    Arg.(
      value & flag
      & info [ "invariants" ] ~doc:"Also check the subject's runtime invariants.")
  in
  let explain =
    Arg.(
      value & flag
      & info [ "explain" ]
          ~doc:"On a violation, render the trailing events as a per-thread timeline.")
  in
  let resume =
    Arg.(
      value & flag
      & info [ "resume" ]
          ~doc:
            "Resume a binary spool from its latest usable checkpoint frame \
             and check only the event suffix, instead of replaying from \
             event zero.  The verdict is identical either way.  Combine \
             with $(b,--checkpoint-events) to also annotate the suffix.")
  in
  let checkpoint_events =
    Arg.(
      value
      & opt (some int) None
      & info [ "checkpoint-events" ] ~docv:"N"
          ~doc:
            "Check a binary spool and append a checkpoint frame to it every \
             $(docv) events, plus one covering the whole spool, so the next \
             check of the same spool can $(b,--resume).  Without \
             $(b,--resume) the check replays from event zero; with it, \
             frames are appended past the resume point.")
  in
  let run subject mode backend lin_budget invariants explain resume
      checkpoint_events monitor_specs file =
    let subject = resolve subject in
    let make_monitors = monitor_factory monitor_specs in
    if monitor_specs <> [] && (resume || checkpoint_events <> None) then begin
      Fmt.epr
        "--monitor needs the whole event stream; drop --resume or \
         --checkpoint-events@.";
      exit 2
    end;
    if backend <> `Refinement && (resume || checkpoint_events <> None) then begin
      Fmt.epr
        "--resume/--checkpoint-events replay the refinement checker only; \
         drop them or use --backend refinement@.";
      exit 2
    end;
    if resume || checkpoint_events <> None then begin
      if not (Sys.file_exists file && Segment.is_binary file) then begin
        Fmt.epr
          "%s: checkpoints live in binary segment spools; record with \
           --binary first@."
          file;
        exit 2
      end;
      let view = match mode with `View -> Some subject.view | `Io -> None in
      let invariants =
        match mode with `View when invariants -> subject.invariants | _ -> []
      in
      (* the one-shard farm [pipeline --subjects] runs, so the spools it
         checkpoints resume here *)
      let shards _level =
        [ Farm.shard ~mode ?view ~invariants subject.name subject.spec ]
      in
      let outcome =
        match
          Resume.resume
            ?at:(if resume then None else Some 0)
            ?annotate_every:checkpoint_events ~shards ~path:file ()
        with
        | o -> o
        | exception Invalid_argument msg ->
          Fmt.epr "configuration error: %s@." msg;
          exit 2
        | exception Vyrd_pipeline.Bincodec.Corrupt msg ->
          Fmt.epr "%s@." msg;
          exit 2
        | exception Sys_error msg ->
          Fmt.epr "%s@." msg;
          exit 2
      in
      Fmt.pr "%a@." Report.pp outcome.Resume.report;
      if resume then (
        match outcome.Resume.resumed_at with
        | Some at ->
          Fmt.pr "resumed at event %d: replayed %d of %d events@." at
            outcome.Resume.replayed outcome.Resume.total
        | None ->
          Fmt.pr "no usable checkpoint: full replay of %d events@."
            outcome.Resume.total);
      Option.iter
        (fun every ->
          if outcome.Resume.truncated then
            Fmt.pr
              "truncated spool: checked %d recovered events, no checkpoints \
               appended@."
              outcome.Resume.total
          else
            Fmt.pr
              "annotated %d checkpoint frame(s) at %d-event spacing over %d \
               replayed events@."
              outcome.Resume.checkpoints every outcome.Resume.replayed)
        checkpoint_events;
      Option.iter
        (Fmt.pr "violating event at stream index %d@.")
        outcome.Resume.fail_index;
      if Report.is_pass outcome.Resume.report then exit 0 else exit 1
    end;
    let log = load_log file in
    (* Offline monitor pass over the loaded snapshot: feed every event,
       resolve at stream end, print each monitor's verdict. *)
    let monitor_fail =
      match make_monitors () with
      | [] -> false
      | ms ->
        Log.iter (fun ev -> List.iter (fun m -> Monitor.feed m ev) ms) log;
        List.fold_left
          (fun fail m ->
            match Monitor.finish m with
            | Monitor.Viol _ ->
              List.iter
                (fun w ->
                  Fmt.pr "monitor %s: violation %a@." (Monitor.name m)
                    Monitor.pp_witness w)
                (Monitor.violations m);
              true
            | Monitor.Sat | Monitor.Pending ->
              Fmt.pr "monitor %s: clean (%d events)@." (Monitor.name m)
                (Monitor.fed m);
              fail)
          false ms
    in
    let refinement_report () =
      match
        match mode with
        | `Io -> Checker.check ~mode:`Io log subject.spec
        | `View ->
          Checker.check ~mode:`View ~view:subject.view
            ~invariants:(if invariants then subject.invariants else [])
            log subject.spec
      with
      | report -> report
      | exception Invalid_argument msg ->
        (* e.g. view-mode checking of a log recorded at level `Io *)
        Fmt.epr "configuration error: %s@." msg;
        exit 2
    in
    let explain_violation report =
      if (not (Report.is_pass report)) && explain then begin
        Fmt.pr "@.%s@."
          (Timeline.tail
             ~options:{ Timeline.default with show_writes = true }
             log ~until:report.Report.stats.events_processed);
        Fmt.pr "%s@." (Timeline.witness log)
      end
    in
    let lin_result () =
      Lin.check_log ~budget:lin_budget
        ~specs:[ (subject.name, subject.spec) ]
        log
    in
    match backend with
    | `Refinement ->
      let report = refinement_report () in
      Fmt.pr "%a@." Report.pp report;
      explain_violation report;
      if Report.is_pass report && not monitor_fail then exit 0 else exit 1
    | `Lin ->
      let r = lin_result () in
      Fmt.pr "%a@." Lin.pp r;
      if Lin.violations r <> [] then exit 1
      else begin
        if Lin.inconclusive r then
          Fmt.pr
            "note: verdict inconclusive — some structure exhausted the \
             %d-node budget; raise --lin-budget@."
            lin_budget;
        if monitor_fail then exit 1 else exit 0
      end
    | `Both ->
      let report = refinement_report () in
      let r = lin_result () in
      Fmt.pr "refinement: %a@." Report.pp report;
      Fmt.pr "lin:        %a@." Lin.pp r;
      explain_violation report;
      let ref_pass = Report.is_pass report in
      let lin_fail = Lin.violations r <> [] in
      let word pass = if pass then "pass" else "violation" in
      if Lin.inconclusive r && not lin_fail then
        Fmt.pr "backends: refinement says %s; lin is inconclusive (budget)@."
          (word ref_pass)
      else if ref_pass = not lin_fail then
        Fmt.pr "backends agree: %s@." (word ref_pass)
      else
        Fmt.pr "backends disagree: refinement=%s lin=%s@." (word ref_pass)
          (word (not lin_fail));
      if ref_pass && (not lin_fail) && not monitor_fail then exit 0 else exit 1
  in
  Cmd.v
    (Cmd.info "check" ~doc:"Check a serialized log against a subject's specification.")
    Term.(
      const run $ subject_arg $ mode $ backend_arg $ lin_budget_arg
      $ invariants $ explain $ resume $ checkpoint_events $ monitor_arg $ file)

let timeline_cmd =
  let file = Arg.(required & pos 0 (some string) None & info [] ~docv:"LOG") in
  let writes =
    Arg.(value & flag & info [ "writes" ] ~doc:"Include shared-variable writes.")
  in
  let width =
    Arg.(value & opt int 22 & info [ "width" ] ~docv:"N" ~doc:"Column width.")
  in
  let run writes width file =
    let log = load_log file in
    print_string
      (Timeline.render
         ~options:{ Timeline.col_width = width; show_writes = writes; max_events = None }
         log);
    print_string (Timeline.witness log)
  in
  Cmd.v
    (Cmd.info "timeline"
       ~doc:"Render a recorded log as a per-thread timeline (Fig. 3 style).")
    Term.(const run $ writes $ width $ file)

(* ------------------------------------------------------------- analyze *)

module Racedetect = Vyrd_analysis.Racedetect
module Lint = Vyrd_analysis.Lint
module Lockgraph = Vyrd_analysis.Lockgraph
module Reduction = Vyrd_baselines.Reduction

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun ch ->
      match ch with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 32 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let json_str s = Printf.sprintf "\"%s\"" (json_escape s)
let json_list items = Printf.sprintf "[%s]" (String.concat "," items)

let access_json (a : Racedetect.access) =
  Printf.sprintf "{\"index\":%d,\"tid\":%d,\"kind\":%s,\"method\":%s}" a.index
    a.tid
    (json_str (match a.kind with `Read -> "read" | `Write -> "write"))
    (match a.meth with
    | Some m ->
      Printf.sprintf "{\"mid\":%s,\"call_index\":%d}" (json_str m.mid)
        m.call_index
    | None -> "null")

let lint_json (l : Lint.result) =
  Printf.sprintf
    "{\"errors\":%d,\"warnings\":%d,\"diagnostics\":%s}" l.errors l.warnings
    (json_list
       (List.map
          (fun (d : Lint.diag) ->
            Printf.sprintf
              "{\"position\":%d,\"tid\":%d,\"severity\":%s,\"kind\":%s,\
               \"message\":%s}"
              d.position d.tid
              (json_str (Fmt.str "%a" Lint.pp_severity d.severity))
              (json_str (Lint.kind_id d.kind))
              (json_str (Lint.message d.kind)))
          l.diags))

let races_json (r : Racedetect.result) =
  Printf.sprintf
    "{\"racy_vars\":%s,\"races\":%s,\"events\":%d,\"variables\":%d}"
    (json_list (List.map json_str r.racy_vars))
    (json_list
       (List.map
          (fun (race : Racedetect.race) ->
            Printf.sprintf "{\"var\":%s,\"prior\":%s,\"current\":%s}"
              (json_str race.var) (access_json race.prior)
              (access_json race.current))
          r.races))
    r.events r.variables

let lockgraph_witness_json (w : Lockgraph.witness) =
  Printf.sprintf "{\"index\":%d,\"tid\":%d,\"held\":%s,\"method\":%s}" w.index
    w.tid
    (json_list (List.map json_str (List.sort compare w.held)))
    (match w.meth with
    | Some m ->
      Printf.sprintf "{\"mid\":%s,\"call_index\":%d}" (json_str m.mid)
        m.call_index
    | None -> "null")

let lockgraph_json (r : Lockgraph.result) =
  Printf.sprintf
    "{\"cycles\":%s,\"locks\":%d,\"edges\":%d,\"acquires\":%d,\
     \"suppressed_gated\":%d,\"suppressed_single_thread\":%d}"
    (json_list
       (List.map
          (fun (c : Lockgraph.cycle) ->
            Printf.sprintf "{\"locks\":%s,\"witnesses\":%s}"
              (json_list (List.map json_str c.locks))
              (json_list
                 (List.map2
                    (fun (e : Lockgraph.edge) w ->
                      Printf.sprintf "{\"from\":%s,\"to\":%s,\"witness\":%s}"
                        (json_str e.src) (json_str e.dst)
                        (lockgraph_witness_json w))
                    c.edges c.chosen)))
          r.cycles))
    r.locks r.edges r.acquires r.suppressed_gated r.suppressed_single_thread

let reduction_json (r : Reduction.result) =
  Printf.sprintf "{\"racy_vars\":%s,\"methods\":%s}"
    (json_list (List.map json_str r.racy_vars))
    (json_list
       (List.map
          (fun (m : Reduction.method_summary) ->
            Printf.sprintf
              "{\"mid\":%s,\"executions\":%d,\"atomic\":%d,\"reducible\":%b}"
              (json_str m.mid) m.executions m.atomic
              (m.atomic = m.executions))
          r.methods))

(* The §8 comparison: which lockset alarms does the precise happens-before
   relation confirm, and which non-reducible methods are race-free (the
   false-alarm gap refinement checking closes)? *)
type comparison = {
  lockset_only : string list;  (* lockset-racy vars with no HB race *)
  hb_only : string list;  (* HB-racy vars the lockset pass missed *)
  false_alarm_methods : string list;  (* non-reducible yet race-free *)
}

let compare_analyses (hb : Racedetect.result) (red : Reduction.result) =
  let diff a b = List.filter (fun v -> not (List.mem v b)) a in
  let racy_methods = Racedetect.racy_methods hb in
  {
    lockset_only = diff red.racy_vars hb.racy_vars;
    hb_only = diff hb.racy_vars red.racy_vars;
    false_alarm_methods =
      List.filter_map
        (fun (m : Reduction.method_summary) ->
          if m.atomic < m.executions && not (List.mem m.mid racy_methods) then
            Some m.mid
          else None)
        red.methods;
  }

let comparison_json c =
  Printf.sprintf
    "{\"lockset_only_vars\":%s,\"hb_only_vars\":%s,\
     \"non_reducible_race_free_methods\":%s}"
    (json_list (List.map json_str c.lockset_only))
    (json_list (List.map json_str c.hb_only))
    (json_list (List.map json_str c.false_alarm_methods))

let analyze_cmd =
  let files =
    Arg.(non_empty & pos_all string [] & info [] ~docv:"LOG" ~doc:"Log file(s).")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Emit one machine-readable JSON document.")
  in
  let lint_only =
    Arg.(
      value & flag
      & info [ "lint-only" ]
          ~doc:
            "Run only the level-tolerant analyses (the log-discipline linter \
             and the lock-order graph); skip race detection and reduction.")
  in
  let run json lint_only files =
    let findings = ref false in
    let analyze_one file =
      let log = load_log file in
      let lint = Lint.check log in
      if not (Lint.ok lint) then findings := true;
      (* level-tolerant like the linter: a sub-`Full log has no lock events,
         so the graph is empty and the verdict trivially clean *)
      let lockgraph = Lockgraph.analyze log in
      if not (Lockgraph.ok lockgraph) then findings := true;
      let deep =
        if lint_only then None
        else
          match (Racedetect.analyze log, Reduction.analyze log) with
          | hb, red ->
            if hb.Racedetect.races <> [] then findings := true;
            Some (hb, red, compare_analyses hb red)
          | exception Invalid_argument msg ->
            (* e.g. race/reduction analysis of a log recorded below `Full *)
            Fmt.epr "configuration error: %s@." msg;
            exit 2
      in
      if json then
        Printf.printf
          "    {\"log\":%s,\"events\":%d,\"lint\":%s,\"lockgraph\":%s%s}"
          (json_str file) (Log.length log) (lint_json lint)
          (lockgraph_json lockgraph)
          (match deep with
          | None -> ""
          | Some (hb, red, cmp) ->
            Printf.sprintf ",\"races\":%s,\"reduction\":%s,\"comparison\":%s"
              (races_json hb) (reduction_json red) (comparison_json cmp))
      else begin
        Fmt.pr "== %s (%d events) ==@." file (Log.length log);
        Fmt.pr "lint: %a@." Lint.pp lint;
        Fmt.pr "lock order: %a@." Lockgraph.pp lockgraph;
        match deep with
        | None -> ()
        | Some (hb, red, cmp) ->
          Fmt.pr "happens-before: %a@." Racedetect.pp hb;
          Fmt.pr "reduction: %a@." Reduction.pp red;
          Fmt.pr "lockset alarms unconfirmed by happens-before: %a@."
            Fmt.(list ~sep:comma string)
            cmp.lockset_only;
          Fmt.pr "non-reducible yet race-free methods (§8 false alarms): %a@."
            Fmt.(list ~sep:comma string)
            cmp.false_alarm_methods
      end
    in
    if json then print_string "{\n  \"analyses\": [\n";
    List.iteri
      (fun i file ->
        if json && i > 0 then print_string ",\n";
        analyze_one file;
        if not json then Fmt.pr "@.")
      files;
    if json then print_string "\n  ]\n}\n";
    if !findings then exit 1 else exit 0
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Static analyses over a recorded log: happens-before race detection \
          (FastTrack), the log-discipline linter, the deadlock-potential \
          lock-order graph (Goodlock), and a side-by-side comparison with \
          Lipton-reduction atomicity (the §8 false-alarm gap).  Requires a \
          log recorded at level full unless --lint-only.")
    Term.(const run $ json $ lint_only $ files)

(* ------------------------------------------------------------ pipeline *)

let pipeline_cmd =
  let subjects_arg =
    Arg.(
      value
      & opt (list string)
          [ "Multiset-Vector"; "java.util.Vector"; "java.util.StringBuffer" ]
      & info [ "subjects" ] ~docv:"NAMES"
          ~doc:
            "Comma-separated subjects run and checked concurrently, one \
             checker domain each.  Method namespaces must be disjoint \
             (the $(b,Spec_compose) precondition).")
  in
  let seed = Arg.(value & opt int 0 & info [ "seed" ] ~docv:"N") in
  let threads = Arg.(value & opt int 4 & info [ "threads" ] ~docv:"N") in
  let ops =
    Arg.(value & opt int 200 & info [ "ops" ] ~docv:"N" ~doc:"Calls per thread.")
  in
  let bug =
    Arg.(
      value & flag & info [ "bug" ] ~doc:"Enable every subject's injected bug.")
  in
  let level =
    Arg.(
      value
      & opt (enum [ ("io", `Io); ("view", `View); ("full", `Full) ]) `View
      & info [ "level" ] ~docv:"LEVEL"
          ~doc:"Logging granularity; below view the farm checks I/O refinement.")
  in
  let capacity =
    Arg.(
      value & opt int 4096
      & info [ "capacity" ] ~docv:"N"
          ~doc:"Per-shard ring bound (memory ceiling; producers block when full).")
  in
  let invariants =
    Arg.(
      value & flag
      & info [ "invariants" ] ~doc:"Also check each subject's runtime invariants.")
  in
  let segments =
    Arg.(
      value
      & opt (some string) None
      & info [ "segments" ] ~docv:"FILE"
          ~doc:"Also spool the event stream to binary segment files at $(docv).")
  in
  let rotate =
    Arg.(
      value
      & opt (some int) None
      & info [ "rotate-bytes" ] ~docv:"N"
          ~doc:"Rotate the segment spool at ~$(docv) bytes per file.")
  in
  let checkpoint_events =
    Arg.(
      value
      & opt (some int) None
      & info [ "checkpoint-events" ] ~docv:"N"
          ~doc:
            "Interleave a farm checkpoint frame into the segment spool every \
             $(docv) events, so a later re-check can resume mid-stream \
             (requires --segments).")
  in
  let metrics_json =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-json" ] ~docv:"FILE"
          ~doc:"Write the metrics registry as one JSON document to $(docv).")
  in
  let native =
    Arg.(
      value & flag
      & info [ "native" ]
          ~doc:"Run the workload under system threads instead of the \
                deterministic engine.")
  in
  let analyze =
    Arg.(
      value & flag
      & info [ "analyze" ]
          ~doc:
            "Attach the incremental analysis passes (lint, lock-order graph, \
             and at level full the race detector) to a dedicated farm lane \
             and report their diagnostics with the verdict.")
  in
  let fault_arg =
    Arg.(
      value
      & opt_all string []
      & info [ "fault" ] ~docv:"NAME"
          ~doc:
            "Arm a seeded mutant from the fault registry for this run \
             (repeatable) — the ground-truth bugs the detectors are \
             validated against, e.g. $(b,cache.lock_order_inversion).")
  in
  let run names seed threads ops bug level capacity invariants segments rotate
      checkpoint_events metrics_json native analyze backend lin_budget
      monitor_specs fault_names =
    let subjects = List.map resolve names in
    let make_monitors = monitor_factory monitor_specs in
    List.iter
      (fun n ->
        match Faults.find n with
        | f -> Faults.arm f
        | exception Not_found ->
          Fmt.epr "unknown fault %S; registered: %a@." n
            Fmt.(list ~sep:comma (using Faults.name string))
            (Faults.registered ());
          exit 2)
      fault_names;
    let cfg =
      { Harness.default with seed; threads; ops_per_thread = ops; log_level = level }
    in
    let log = Log.create ~level () in
    let metrics = Metrics.create () in
    let logged = Metrics.counter metrics "log.events" in
    let shards =
      List.map
        (fun (s : Subjects.t) ->
          match level with
          | `View | `Full ->
            Farm.shard ~mode:`View ~view:s.view
              ~invariants:(if invariants then s.invariants else [])
              s.name s.spec
          | `Io | `None -> Farm.shard ~mode:`Io s.name s.spec)
        subjects
    in
    let passes =
      (if backend <> `Refinement then
         let specs =
           List.map (fun (s : Subjects.t) -> (s.name, s.spec)) subjects
         in
         [ Lin.pass ~budget:lin_budget ~metrics ~specs () ]
       else [])
      @ (match make_monitors () with
        | [] -> []
        | ms -> [ Monitor.pass ~metrics ms ])
      @ if analyze then Vyrd_analysis.Pass.for_level level else []
    in
    let farm =
      match Farm.start ~capacity ~metrics ~passes ~level shards with
      | farm -> farm
      | exception Invalid_argument msg ->
        Fmt.epr "configuration error: %s@." msg;
        exit 2
    in
    Farm.attach farm log;
    Log.subscribe log (fun _ -> Metrics.incr logged);
    let writer =
      Option.map
        (fun path ->
          let w = Segment.create_writer ?rotate_bytes:rotate ~level path in
          Segment.attach w log;
          w)
        segments
    in
    let checkpoints = ref 0 in
    (match checkpoint_events with
    | None -> ()
    | Some every ->
      if every <= 0 then begin
        Fmt.epr "--checkpoint-events must be positive@.";
        exit 2
      end;
      (match writer with
      | None ->
        Fmt.epr
          "--checkpoint-events requires --segments: checkpoints are frames \
           in the spool@.";
        exit 2
      | Some w ->
        (* subscribed after the farm and the writer: when this fires on
           event [i] the farm has consumed and the writer has buffered all
           [i] events, so the barrier snapshot and the frame position agree *)
        let seen = ref 0 in
        Log.subscribe log (fun _ ->
            incr seen;
            if !seen mod every = 0 then
              match Farm.checkpoint farm with
              | Some state ->
                Segment.append_checkpoint w state;
                incr checkpoints
              | None -> ())));
    let t0 = Unix.gettimeofday () in
    (match
       Harness.run_into ~native ~log cfg
         (List.map (fun (s : Subjects.t) -> s.build ~bug) subjects)
     with
    | () -> ()
    | exception Vyrd_sched.Coop.Deadlock msg ->
      (* an armed deadlock-kind fault genuinely hung this schedule; pick
         another --seed to get a completed trace for the monitors *)
      Fmt.epr "workload deadlocked (%s); retry with a different --seed@." msg;
      exit 2);
    Option.iter Segment.close writer;
    let result = Farm.finish farm in
    let dt = Unix.gettimeofday () -. t0 in
    Fmt.pr "pipeline: %d events through %d checker domain(s) in %.3fs (%.0f ev/s)@."
      result.Farm.fed
      (List.length result.Farm.shards)
      dt
      (float_of_int result.Farm.fed /. dt);
    List.iter
      (fun (sr : Farm.shard_result) ->
        Fmt.pr "  %-22s %-10s events %-8d high-water %-6d stall %.1f ms@."
          sr.Farm.sr_name (Report.tag sr.Farm.sr_report) sr.Farm.sr_events
          sr.Farm.sr_high_water
          (float_of_int sr.Farm.sr_stall_ns /. 1e6))
      result.Farm.shards;
    Fmt.pr "merged: %a@." Report.pp result.Farm.merged;
    List.iter
      (fun s -> Fmt.pr "analysis %a@." Vyrd_analysis.Pass.pp_summary s)
      result.Farm.analysis;
    (match writer with
    | Some w ->
      Fmt.pr "segments: %d file(s), %d segments, %d bytes@."
        (List.length (Segment.writer_files w))
        (Segment.writer_segments w) (Segment.writer_bytes w)
    | None -> ());
    if checkpoint_events <> None then
      Fmt.pr "checkpoints: %d frame(s) interleaved@." !checkpoints;
    Fmt.pr "@.%a" Metrics.pp metrics;
    (match metrics_json with
    | Some f ->
      let oc = open_out f in
      output_string oc (Metrics.to_json metrics);
      output_char oc '\n';
      close_out oc
    | None -> ());
    let analysis_clean =
      List.for_all Vyrd_analysis.Pass.clean result.Farm.analysis
    in
    (match backend with
    | `Refinement -> ()
    | `Lin | `Both -> (
      match
        List.find_opt
          (fun (s : Vyrd_analysis.Pass.summary) -> s.pass = "lin")
          result.Farm.analysis
      with
      | None -> ()
      | Some s ->
        let ref_pass = Report.is_pass result.Farm.merged in
        let lin_pass = s.Vyrd_analysis.Pass.errors = 0 in
        let word pass = if pass then "pass" else "violation" in
        if ref_pass = lin_pass then
          Fmt.pr "backends agree: %s@." (word ref_pass)
        else
          Fmt.pr "backends disagree: refinement=%s lin=%s@." (word ref_pass)
            (word lin_pass)));
    let verdict_pass =
      match backend with
      | `Lin ->
        (* lin-only verdict: the farm's refinement shards still ran (they
           are the consumption mechanism) and are reported above, but the
           exit code reflects the lin lane and any analysis passes *)
        analysis_clean
      | `Refinement | `Both ->
        Report.is_pass result.Farm.merged && analysis_clean
    in
    if verdict_pass then exit 0 else exit 1
  in
  Cmd.v
    (Cmd.info "pipeline"
       ~doc:
         "Stream a multi-structure workload through the full pipeline: one \
          bounded queue and one checker domain per structure, optional binary \
          segment spooling, merged verdict and metrics at the end.")
    Term.(
      const run $ subjects_arg $ seed $ threads $ ops $ bug $ level $ capacity
      $ invariants $ segments $ rotate $ checkpoint_events $ metrics_json
      $ native $ analyze $ backend_arg $ lin_budget_arg $ monitor_arg
      $ fault_arg)

(* ----------------------------------------------------------- serve/submit *)

let addr_arg =
  let addr_conv =
    ( (fun s -> `Ok (Wire.addr_of_string s)),
      fun ppf a -> Wire.pp_addr ppf a )
  in
  Arg.(
    required
    & opt (some addr_conv) None
    & info [ "l"; "listen"; "to" ] ~docv:"ADDR"
        ~doc:
          "Socket address: a Unix socket path, or $(i,HOST:PORT) for \
           loopback/remote TCP.")

let write_metrics_json file metrics =
  match open_out file with
  | oc ->
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () ->
        output_string oc (Metrics.to_json metrics);
        output_char oc '\n')
  | exception Sys_error msg -> Fmt.epr "cannot write %s: %s@." file msg

let shards_for subjects invariants level =
  List.map
    (fun (s : Subjects.t) ->
      match level with
      | `View | `Full ->
        Farm.shard ~mode:`View ~view:s.view
          ~invariants:(if invariants then s.invariants else [])
          s.name s.spec
      | `Io | `None -> Farm.shard ~mode:`Io s.name s.spec)
    subjects

(* The daemon main loop shared by [serve] and [cluster]: wait for
   SIGINT/SIGTERM, then drain.  The signal handlers only flip flags:
   [metrics ()] may take the registry mutex (and the cluster's polls its
   workers), so dumping from inside a handler could re-enter a thread's
   locked section and deadlock the daemon.  SIGUSR1 dumps happen here, on
   the main wait loop.  [drain] stops accepting, finishes the open sessions
   and returns the final metrics. *)
let run_until_signalled ~name ~metrics ~active ~drain metrics_json =
  let stop = ref false in
  let handle _ = stop := true in
  Sys.set_signal Sys.sigint (Sys.Signal_handle handle);
  Sys.set_signal Sys.sigterm (Sys.Signal_handle handle);
  let dump_requested = ref false in
  Sys.set_signal Sys.sigusr1
    (Sys.Signal_handle (fun _ -> dump_requested := true));
  let dump_if_requested () =
    if !dump_requested then begin
      dump_requested := false;
      Fmt.epr "%a@." Metrics.pp (metrics ())
    end
  in
  while not !stop do
    dump_if_requested ();
    (try Thread.delay 0.1 with Unix.Unix_error (Unix.EINTR, _, _) -> ())
  done;
  dump_if_requested ();
  Fmt.pr "%s: draining %d open session(s)...@." name (active ());
  let final = drain () in
  Fmt.pr "%a@." Metrics.pp final;
  Option.iter (fun f -> write_metrics_json f final) metrics_json

let serve_cmd =
  let subjects_arg =
    Arg.(
      value
      & opt (list string)
          [ "Multiset-Vector"; "java.util.Vector"; "java.util.StringBuffer" ]
      & info [ "subjects" ] ~docv:"NAMES"
          ~doc:
            "Comma-separated subjects every session is checked against, one \
             checker domain each; method namespaces must be disjoint.")
  in
  let capacity =
    Arg.(
      value & opt int 4096
      & info [ "capacity" ] ~docv:"N" ~doc:"Per-shard ring bound.")
  in
  let window =
    Arg.(
      value & opt int 8192
      & info [ "window" ] ~docv:"N"
          ~doc:"Credit window: events a client may have in flight.")
  in
  let max_sessions =
    Arg.(
      value & opt int 8
      & info [ "max-sessions" ] ~docv:"N"
          ~doc:
            "Concurrent checking sessions; further sessions spill to segment \
             files for later offline checking instead of being refused.")
  in
  let spill_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "spill-dir" ] ~docv:"DIR" ~doc:"Where overload spools go.")
  in
  let idle_timeout =
    Arg.(
      value & opt float 30.
      & info [ "idle-timeout" ] ~docv:"SECONDS"
          ~doc:"Fail a session after this long without a frame (heartbeats reset it).")
  in
  let invariants =
    Arg.(
      value & flag
      & info [ "invariants" ] ~doc:"Also check each subject's runtime invariants.")
  in
  let recheck_spills =
    Arg.(
      value & flag
      & info [ "recheck-spills" ]
          ~doc:
            "Re-check each spilled spool offline once its session finishes \
             and a checking slot frees up, resuming from the spool's latest \
             checkpoint frame.")
  in
  let checkpoint_events =
    Arg.(
      value & opt int 50_000
      & info [ "checkpoint-events" ] ~docv:"N"
          ~doc:
            "Checkpoint-frame spacing (events) that spill re-checks append \
             to their spools.")
  in
  let metrics_json =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-json" ] ~docv:"FILE"
          ~doc:"Write the metrics registry as JSON to $(docv) on shutdown.")
  in
  let analyze =
    Arg.(
      value & flag
      & info [ "analyze" ]
          ~doc:
            "Attach fresh incremental analysis passes (lint, lock-order \
             graph, and at level full the race detector) to every session's \
             farm; diagnostic counts surface in the analysis.* metrics.")
  in
  let run addr names capacity window max_sessions spill_dir idle_timeout
      invariants recheck_spills checkpoint_events metrics_json analyze
      monitor_specs =
    let subjects = List.map resolve names in
    let make_monitors = monitor_factory monitor_specs in
    let metrics = Metrics.create () in
    let monitors () =
      (* fresh monitors per session: they are stateful stream machines *)
      match make_monitors () with
      | [] -> []
      | ms -> [ Monitor.pass ~metrics ms ]
    in
    let cfg =
      Server.config ~capacity ~window ~max_sessions ?spill_dir ~idle_timeout
        ~recheck_spills ~checkpoint_events ~analyze ~monitors ~metrics ~addr
        (shards_for subjects invariants)
    in
    let server =
      match Server.start cfg with
      | server -> server
      | exception Unix.Unix_error (e, _, arg) ->
        Fmt.epr "cannot listen on %a: %s %s@." Wire.pp_addr addr
          (Unix.error_message e) arg;
        exit 2
    in
    Fmt.pr "vyrdd: listening on %a (%d shard(s)/session, window %d, spill after \
            %d sessions)@."
      Wire.pp_addr (Server.addr server)
      (List.length subjects) window max_sessions;
    Fmt.pr "vyrdd: SIGUSR1 dumps metrics; SIGINT/SIGTERM drains and exits@.";
    run_until_signalled ~name:"vyrdd"
      ~metrics:(fun () -> metrics)
      ~active:(fun () -> Server.active server)
      ~drain:(fun () ->
        Server.stop server;
        metrics)
      metrics_json
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the vyrdd verification daemon: accept binary event streams over \
          a socket, drive one checker farm per session, answer with the \
          verdict; overload spills to segment files.")
    Term.(
      const run $ addr_arg $ subjects_arg $ capacity $ window $ max_sessions
      $ spill_dir $ idle_timeout $ invariants $ recheck_spills
      $ checkpoint_events $ metrics_json $ analyze $ monitor_arg)

let cluster_cmd =
  let subjects_arg =
    Arg.(
      value
      & opt (list string)
          [ "Multiset-Vector"; "java.util.Vector"; "java.util.StringBuffer" ]
      & info [ "subjects" ] ~docv:"NAMES"
          ~doc:
            "Comma-separated subjects every session is checked against, one \
             checker domain each; method namespaces must be disjoint.")
  in
  let workers =
    Arg.(
      value & opt int 2
      & info [ "workers" ] ~docv:"N"
          ~doc:
            "In-process vyrdd workers to spawn (ignored when $(b,--worker) \
             gives external addresses).")
  in
  let extern =
    Arg.(
      value
      & opt_all string []
      & info [ "worker" ] ~docv:"NAME=ADDR"
          ~doc:
            "Attach an externally-run vyrdd instead of spawning in-process \
             workers; repeatable.  $(docv) is a member name and its socket \
             address.")
  in
  let spool_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "spool-dir" ] ~docv:"DIR"
          ~doc:
            "Per-session failover spools live here (default: a fresh \
             directory under the system temp dir).")
  in
  let slots =
    Arg.(
      value & opt int 4
      & info [ "worker-slots" ] ~docv:"N"
          ~doc:"Concurrent sessions routed to each worker before overflowing \
                to its ring successor.")
  in
  let window =
    Arg.(
      value & opt int 8192
      & info [ "window" ] ~docv:"N"
          ~doc:"Credit window: events a client may have in flight.")
  in
  let capacity =
    Arg.(
      value & opt int 4096
      & info [ "capacity" ] ~docv:"N" ~doc:"Per-shard ring bound on workers.")
  in
  let checkpoint_events =
    Arg.(
      value & opt int 25_000
      & info [ "checkpoint-events" ] ~docv:"N"
          ~doc:
            "Ask the owning worker for a barrier snapshot about every $(docv) \
             events and spool it as a checkpoint frame; 0 disables (failover \
             then replays sessions from event zero).")
  in
  let vnodes =
    Arg.(
      value & opt int 128
      & info [ "vnodes" ] ~docv:"N" ~doc:"Ring virtual nodes per worker.")
  in
  let ring_seed =
    Arg.(
      value & opt int 0
      & info [ "ring-seed" ] ~docv:"N" ~doc:"Ring placement seed.")
  in
  let keep_spools =
    Arg.(
      value & flag
      & info [ "keep-spools" ]
          ~doc:"Keep verdicted sessions' spool files instead of deleting them.")
  in
  let idle_timeout =
    Arg.(
      value & opt float 30.
      & info [ "idle-timeout" ] ~docv:"SECONDS"
          ~doc:"Fail a session after this long without a client frame.")
  in
  let invariants =
    Arg.(
      value & flag
      & info [ "invariants" ] ~doc:"Also check each subject's runtime invariants.")
  in
  let metrics_json =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-json" ] ~docv:"FILE"
          ~doc:
            "Write the aggregated cluster-wide metrics as JSON to $(docv) on \
             shutdown.")
  in
  let analyze =
    Arg.(
      value & flag
      & info [ "analyze" ]
          ~doc:"Attach incremental analysis passes to every worker session.")
  in
  let run addr names workers extern spool_dir slots window capacity
      checkpoint_events vnodes ring_seed keep_spools idle_timeout invariants
      metrics_json analyze =
    if extern = [] && workers <= 0 then begin
      Fmt.epr "--workers must be positive (or give --worker addresses)@.";
      exit 2
    end;
    let subjects = List.map resolve names in
    let spool_dir =
      match spool_dir with
      | Some d -> d
      | None ->
        let d =
          Filename.concat
            (Filename.get_temp_dir_name ())
            (Printf.sprintf "vyrdc-%d" (Unix.getpid ()))
        in
        (try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
        d
    in
    let metrics = Metrics.create () in
    let cfg =
      Coordinator.config ~window ~checkpoint_events ~worker_slots:slots
        ~idle_timeout ~keep_spools ~vnodes ~seed:ring_seed ~metrics ~addr
        ~spool_dir ()
    in
    let coord =
      match Coordinator.start cfg with
      | coord -> coord
      | exception Unix.Unix_error (e, _, arg) ->
        Fmt.epr "cannot listen on %a: %s %s@." Wire.pp_addr addr
          (Unix.error_message e) arg;
        exit 2
    in
    let pool =
      if extern <> [] then None
      else
        Some
          (Supervisor.start ~count:workers ~capacity ~window ~analyze
             ~dir:spool_dir
             ~shards:(shards_for subjects invariants)
             ())
    in
    let members =
      match pool with
      | Some p -> Supervisor.workers p
      | None ->
        List.map
          (fun s ->
            match String.index_opt s '=' with
            | Some i ->
              ( String.sub s 0 i,
                Wire.addr_of_string
                  (String.sub s (i + 1) (String.length s - i - 1)) )
            | None -> (s, Wire.addr_of_string s))
          extern
    in
    (try
       List.iter
         (fun (name, waddr) -> Coordinator.attach ~slots coord ~name ~addr:waddr)
         members
     with Unix.Unix_error (e, _, arg) ->
       Fmt.epr "cannot attach worker: %s %s@." (Unix.error_message e) arg;
       Coordinator.stop ~deadline:0. coord;
       exit 2);
    Fmt.pr
      "vyrdc: listening on %a, %d worker(s) on the ring (%d slot(s) each, %d \
       vnodes), spools in %s@."
      Wire.pp_addr (Coordinator.addr coord) (List.length members) slots vnodes
      spool_dir;
    Fmt.pr "vyrdc: SIGUSR1 dumps cluster-wide metrics; SIGINT/SIGTERM drains \
            and exits@.";
    run_until_signalled ~name:"vyrdc"
      ~metrics:(fun () -> Coordinator.aggregate coord)
      ~active:(fun () -> Coordinator.active coord)
      ~drain:(fun () ->
        Coordinator.stop coord;
        let agg = Coordinator.aggregate coord in
        Option.iter (fun p -> Supervisor.stop p) pool;
        agg)
      metrics_json
  in
  Cmd.v
    (Cmd.info "cluster"
       ~doc:
         "Run the vyrdc cluster coordinator: accept client sessions on one \
          socket (the plain vyrdd wire protocol — existing clients connect \
          unchanged), route each to one of N vyrdd workers by consistent \
          hashing, and fail sessions over to another worker from their \
          checkpointed spools when a worker dies.")
    Term.(
      const run $ addr_arg $ subjects_arg $ workers $ extern $ spool_dir
      $ slots $ window $ capacity $ checkpoint_events $ vnodes $ ring_seed
      $ keep_spools $ idle_timeout $ invariants $ metrics_json $ analyze)

let submit_cmd =
  let file = Arg.(required & pos 0 (some string) None & info [] ~docv:"LOG") in
  let retries =
    Arg.(
      value & opt int 5
      & info [ "retries" ] ~docv:"N"
          ~doc:"Connect retries (exponential backoff) on transient failures.")
  in
  let batch =
    Arg.(
      value & opt int 256
      & info [ "batch" ] ~docv:"N" ~doc:"Events per wire batch frame.")
  in
  let run addr retries batch file =
    let log = load_log file in
    let t0 = Unix.gettimeofday () in
    match
      Client.submit_log ~retries ~batch_events:batch
        ~producer:(Filename.basename file) addr log
    with
    | Client.Checked { report; fail_index } ->
      let dt = Unix.gettimeofday () -. t0 in
      Fmt.pr "%a@." Report.pp report;
      Option.iter (Fmt.pr "violating event at stream index %d@.") fail_index;
      Fmt.pr "submitted %d events in %.3fs (%.0f ev/s)@." (Log.length log) dt
        (float_of_int (Log.length log) /. dt);
      if Report.is_pass report then exit 0 else exit 1
    | Client.Spilled { path; events } ->
      Fmt.pr
        "server overloaded: %d events spooled to %s on the server for later \
         offline checking@."
        events path;
      exit 0
    | exception Client.Server_error msg ->
      Fmt.epr "session failed: %s@." msg;
      exit 2
    | exception Unix.Unix_error (e, _, _) ->
      Fmt.epr "cannot reach %a: %s@." Wire.pp_addr addr (Unix.error_message e);
      exit 2
  in
  Cmd.v
    (Cmd.info "submit"
       ~doc:
         "Stream a recorded log (text or binary) to a running vyrdd and print \
          its verdict.")
    Term.(const run $ addr_arg $ retries $ batch $ file)

let explore_cmd =
  let threads = Arg.(value & opt int 2 & info [ "threads" ] ~docv:"N") in
  let ops =
    Arg.(value & opt int 1 & info [ "ops" ] ~docv:"N" ~doc:"Calls per thread.")
  in
  let bug = Arg.(value & flag & info [ "bug" ] ~doc:"Enable the subject's injected bug.") in
  let budget =
    Arg.(
      value & opt int 50_000
      & info [ "max-schedules" ] ~docv:"N" ~doc:"Schedule budget.")
  in
  let opseed =
    Arg.(
      value & opt int 0
      & info [ "opseed" ] ~docv:"N"
          ~doc:"Seed selecting which operations the scenario performs.")
  in
  let pb =
    Arg.(
      value
      & opt (some int) None
      & info [ "preemption-bound"; "pb" ] ~docv:"N"
          ~doc:
            "Explore only schedules with at most $(docv) preemptions \
             (CHESS-style context bounding).")
  in
  let run subject threads ops bug budget opseed pb =
    let subject = resolve subject in
    let violations = ref 0 in
    let first = ref None in
    let r =
      Vyrd_sched.Explore.explore ~max_schedules:budget ?preemption_bound:pb
        ~stop:(fun () -> !first <> None)
        (fun () ->
          let log = Log.create ~level:`View () in
          let finished = ref 0 in
          fun sched ->
            let ctx = Instrument.make sched log in
            let b = subject.build ~bug ctx in
            for t = 1 to threads do
              sched.Vyrd_sched.Sched.spawn (fun () ->
                  let rng = Vyrd_sched.Prng.create ((opseed * 1223) + t) in
                  for _ = 1 to ops do
                    b.Harness.random_op rng (Vyrd_sched.Prng.int rng 8)
                  done;
                  incr finished;
                  if !finished = threads then begin
                    let report =
                      Checker.check ~mode:`View ~view:subject.view log subject.spec
                    in
                    if not (Report.is_pass report) then begin
                      incr violations;
                      if !first = None then first := Some (report, log)
                    end
                  end)
            done)
    in
    Fmt.pr "%d schedules explored (%s), %d deadlocking, %d violating@."
      r.Vyrd_sched.Explore.schedules
      (if r.Vyrd_sched.Explore.exhausted then "space exhausted" else "budget hit")
      r.Vyrd_sched.Explore.deadlocks !violations;
    match !first with
    | None -> ()
    | Some (report, log) ->
      Fmt.pr "@.first violating schedule:@.%a@.@." Report.pp report;
      print_string
        (Timeline.render ~options:{ Timeline.default with show_writes = true } log);
      exit 1
  in
  Cmd.v
    (Cmd.info "explore"
       ~doc:
         "Systematically explore every schedule of a small scenario, checking \
          view refinement on each (bounded verification).")
    Term.(const run $ subject_arg $ threads $ ops $ bug $ budget $ opseed $ pb)

let () =
  let doc = "runtime refinement-violation detection (PLDI 2005 reproduction)" in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "vyrd-check" ~doc)
          [
            list_cmd;
            record_cmd;
            check_cmd;
            timeline_cmd;
            analyze_cmd;
            pipeline_cmd;
            serve_cmd;
            cluster_cmd;
            submit_cmd;
            explore_cmd;
          ]))
