(* Online refinement checking of the Scan-like file system (paper §4.2,
   §7.3): a verification domain consumes the log concurrently with the
   instrumented program, as in the paper's two-phase architecture.

     dune exec examples/filesystem_check.exe
*)

open Vyrd
open Vyrd_sched
open Vyrd_scanfs
module Farm = Vyrd_pipeline.Farm

let disk_blocks = 16
let names = [| "alpha"; "beta"; "gamma" |]

let payload rng key =
  String.init (1 + Prng.int rng Scanfs.file_size) (fun i ->
      Char.chr (97 + ((key + i) mod 26)))

let run_with_online ~bugs ~seed =
  let log = Log.create ~level:`View () in
  (* the online verifier subscribes before the program starts: a one-shard
     farm is the paper's single verification thread *)
  let farm =
    Farm.start ~level:`View
      [ Farm.shard ~mode:`View ~view:(Scanfs.viewdef ~disk_blocks) "ScanFS" Scanfs.spec ]
  in
  Farm.attach farm log;
  Coop.run ~seed (fun s ->
      let ctx = Instrument.make s log in
      let fs = Scanfs.create_fs ~bugs ~disk_blocks ctx in
      let stop = ref false in
      s.spawn (fun () ->
          while not !stop do
            Scanfs.sync fs;
            s.yield ()
          done);
      let remaining = ref 4 in
      for t = 1 to 4 do
        s.spawn (fun () ->
            let rng = Prng.create ((seed * 131) + t) in
            for _ = 1 to 20 do
              let key = Prng.int rng 26 in
              let name = names.(key mod Array.length names) in
              match Prng.int rng 10 with
              | 0 | 1 -> ignore (Scanfs.create fs name)
              | 2 | 3 | 4 -> ignore (Scanfs.write fs name (payload rng key))
              | 5 | 6 -> ignore (Scanfs.read fs name)
              | 7 -> ignore (Scanfs.exists fs name)
              | 8 -> ignore (Scanfs.delete fs name)
              | _ -> Scanfs.evict fs (Prng.int rng disk_blocks)
            done;
            decr remaining;
            if !remaining = 0 then stop := true)
      done);
  (Log.length log, (Farm.finish farm).Farm.merged)

let () =
  Fmt.pr "== ScanFS checked online ==@.@.";
  Fmt.pr "The verification thread runs on a separate domain and consumes@.";
  Fmt.pr "log entries as the instrumented file system appends them.@.@.";

  let events, report = run_with_online ~bugs:[] ~seed:11 in
  Fmt.pr "correct FS: %d events checked online -> %a@.@." events Report.pp report;

  Fmt.pr "Now with the legacy in-place write path whose dirty-block copy@.";
  Fmt.pr "is not protected against the scan flush (the class of bug the@.";
  Fmt.pr "paper reports finding in Scan's cache module, §7.3):@.@.";
  let rec hunt seed =
    if seed > 500 then Fmt.pr "no violation found in 500 seeds (unexpected)@."
    else begin
      let events, report =
        run_with_online ~bugs:[ Scanfs.Unprotected_dirty_copy ] ~seed
      in
      if Report.is_pass report then hunt (seed + 1)
      else
        Fmt.pr "seed %d, %d events: %a@." seed events Report.pp report
    end
  in
  hunt 0
