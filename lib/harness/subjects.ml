open Vyrd
module Prng = Vyrd_sched.Prng

type t = {
  name : string;
  bug_description : string;
  spec : Spec.t;
  view : View.t;
  invariants : Checker.invariant list;
  build : bug:bool -> Instrument.ctx -> Harness.built;
}

(* --- Multiset-Vector ---------------------------------------------------- *)

let ms_vector_capacity = 32

let multiset_vector =
  let open Vyrd_multiset in
  {
    name = "Multiset-Vector";
    bug_description = "Moving acquire in FindSlot";
    spec = Multiset_spec.spec;
    view = Multiset_vector.viewdef ~capacity:ms_vector_capacity;
    invariants = [];
    build =
      (fun ~bug ctx ->
        let bugs = if bug then [ Multiset_vector.Racy_find_slot ] else [] in
        let ms = Multiset_vector.create ~bugs ~capacity:ms_vector_capacity ctx in
        let random_op rng key =
          match Prng.int rng 10 with
          | 0 | 1 | 2 -> ignore (Multiset_vector.insert ms key)
          | 3 | 4 -> ignore (Multiset_vector.insert_pair ms key (key + 1))
          | 5 | 6 -> ignore (Multiset_vector.delete ms key)
          | 7 | 8 -> ignore (Multiset_vector.lookup ms key)
          | _ -> ignore (Multiset_vector.count ms key)
        in
        { Harness.random_op; daemon = None });
  }

(* --- Multiset-BinaryTree ------------------------------------------------- *)

let multiset_btree =
  let open Vyrd_multiset in
  {
    name = "Multiset-BinaryTree";
    bug_description = "Unlocking parent before insertion";
    spec = Multiset_spec.spec;
    view = Multiset_btree.viewdef;
    invariants = [];
    build =
      (fun ~bug ctx ->
        let bugs = if bug then [ Multiset_btree.Unlock_parent_early ] else [] in
        let ms = Multiset_btree.create ~bugs ctx in
        let random_op rng key =
          match Prng.int rng 10 with
          | 0 | 1 | 2 | 3 -> ignore (Multiset_btree.insert ms key)
          | 4 | 5 -> ignore (Multiset_btree.delete ms key)
          | 6 | 7 -> ignore (Multiset_btree.lookup ms key)
          | _ -> ignore (Multiset_btree.count ms key)
        in
        { Harness.random_op; daemon = Some (fun () -> Multiset_btree.compress ms) });
  }

(* --- java.util.Vector ----------------------------------------------------- *)

let jvector_capacity = 64

let jvector =
  let open Vyrd_jlib in
  {
    name = "java.util.Vector";
    bug_description = "Taking length non-atomically in lastIndexOf()";
    spec = Vector.spec;
    view = Vector.viewdef ~capacity:jvector_capacity;
    invariants = [];
    build =
      (fun ~bug ctx ->
        let bugs = if bug then [ Vector.Non_atomic_last_index_of ] else [] in
        let v = Vector.create ~bugs ~capacity:jvector_capacity ctx in
        let random_op rng key =
          try
            match Prng.int rng 13 with
            | 0 | 1 | 2 -> ignore (Vector.add v key)
            | 3 | 4 -> ignore (Vector.remove_last v)
            | 5 -> ignore (Vector.get v (Prng.int rng 8))
            | 6 -> ignore (Vector.size v)
            | 7 -> ignore (Vector.contains v key)
            | 8 -> ignore (Vector.insert_at v (Prng.int rng 6) key)
            | 9 -> ignore (Vector.remove_at v (Prng.int rng 6))
            | 10 -> ignore (Vector.set v (Prng.int rng 6) key)
            | 11 -> ignore (Vector.index_of v key)
            | _ -> ignore (Vector.last_index_of v key)
          with Vector.Index_out_of_bounds -> ()
        in
        { Harness.random_op; daemon = None });
  }

(* --- java.util.StringBuffer ----------------------------------------------- *)

let sb_buffers = 3
let sb_capacity = 64

let string_buffer =
  let open Vyrd_jlib in
  {
    name = "java.util.StringBuffer";
    bug_description = "Copying from an unprotected StringBuffer";
    spec = String_buffer.spec ~buffers:sb_buffers;
    view = String_buffer.viewdef ~buffers:sb_buffers ~buf_capacity:sb_capacity;
    invariants = [];
    build =
      (fun ~bug ctx ->
        let bugs = if bug then [ String_buffer.Unprotected_append_source ] else [] in
        let p =
          String_buffer.create ~bugs ~buffers:sb_buffers ~buf_capacity:sb_capacity ctx
        in
        let random_op rng key =
          let b = key mod sb_buffers in
          match Prng.int rng 13 with
          | 0 | 1 | 2 ->
            ignore
              (String_buffer.append_str p b
                 (String.make (1 + Prng.int rng 3) (Char.chr (97 + (key mod 26)))))
          | 3 | 4 | 5 ->
            ignore (String_buffer.append_sb p ~dst:b ~src:(Prng.int rng sb_buffers))
          | 6 -> ignore (String_buffer.truncate p b (Prng.int rng 4))
          | 7 | 8 -> ignore (String_buffer.to_string p b)
          | 9 -> ignore (String_buffer.set_char p b (Prng.int rng 5) 'q')
          | 10 ->
            ignore
              (String_buffer.delete_range p b ~pos:(Prng.int rng 4)
                 ~len:(Prng.int rng 3))
          | 11 -> ignore (String_buffer.char_at p b (Prng.int rng 6))
          | _ -> ignore (String_buffer.length p b)
        in
        { Harness.random_op; daemon = None });
  }

(* --- BLinkTree ------------------------------------------------------------ *)

let blink_tree =
  let open Vyrd_boxwood in
  {
    name = "BLinkTree";
    bug_description = "Allowing duplicated data nodes";
    spec = Blink_tree.spec;
    view = Blink_tree.viewdef;
    invariants = [];
    build =
      (fun ~bug ctx ->
        let bugs = if bug then [ Blink_tree.Duplicate_data_nodes ] else [] in
        let tree = Blink_tree.create ~bugs ~order:4 (Bnode.mem_store ctx) ctx in
        let random_op rng key =
          match Prng.int rng 10 with
          | 0 | 1 | 2 | 3 -> Blink_tree.insert tree key (Prng.int rng 1000)
          | 4 | 5 -> ignore (Blink_tree.delete tree key)
          | _ -> ignore (Blink_tree.lookup tree key)
        in
        { Harness.random_op; daemon = Some (fun () -> Blink_tree.compress tree) });
  }

(* --- Cache ----------------------------------------------------------------- *)

let cache_chunks = 8
let cache_buf_size = 8

let cache =
  let open Vyrd_boxwood in
  {
    name = "Cache";
    bug_description = "Writing an unprotected dirty cache entry";
    spec = Cache.spec ~chunks:cache_chunks;
    view = Cache.viewdef ~chunks:cache_chunks ~buf_size:cache_buf_size;
    invariants =
      [ Cache.invariant_clean_matches_chunk ~chunks:cache_chunks ~buf_size:cache_buf_size ];
    build =
      (fun ~bug ctx ->
        let bugs = if bug then [ Cache.Unprotected_dirty_copy ] else [] in
        let cm = Chunk_manager.create ~chunks:cache_chunks ctx in
        let c = Cache.create ~bugs ~buf_size:cache_buf_size ctx cm in
        let payload rng key =
          String.init cache_buf_size (fun i ->
              Char.chr (97 + ((key + i + Prng.int rng 26) mod 26)))
        in
        (* write-heavy mix: the paper's point is that corrupted state can
           sit in the store long before any read exposes it *)
        let random_op rng key =
          let h = key mod cache_chunks in
          match Prng.int rng 10 with
          | 0 | 1 | 2 | 3 | 4 | 5 -> Cache.write c h (payload rng key)
          | 6 -> ignore (Cache.read c h)
          | _ -> Cache.evict c h
        in
        { Harness.random_op; daemon = Some (fun () -> Cache.flush c) });
  }

(* --- ScanFS ----------------------------------------------------------------- *)

let fs_disk_blocks = 24
let fs_names = [| "alpha"; "beta"; "gamma"; "delta"; "epsilon" |]

let scanfs =
  let open Vyrd_scanfs in
  {
    name = "ScanFS";
    bug_description = "Writing an unprotected dirty cache block";
    spec = Scanfs.spec;
    view = Scanfs.viewdef ~disk_blocks:fs_disk_blocks;
    invariants = [ Scanfs.invariant_clean_matches_disk ~disk_blocks:fs_disk_blocks ];
    build =
      (fun ~bug ctx ->
        let bugs = if bug then [ Scanfs.Unprotected_dirty_copy ] else [] in
        let fs = Scanfs.create_fs ~bugs ~disk_blocks:fs_disk_blocks ctx in
        let payload rng key =
          String.init
            (1 + Prng.int rng Scanfs.file_size)
            (fun i -> Char.chr (97 + ((key + i) mod 26)))
        in
        let random_op rng key =
          let name = fs_names.(key mod Array.length fs_names) in
          match Prng.int rng 12 with
          | 0 | 1 -> ignore (Scanfs.create fs name)
          | 2 | 3 | 4 -> ignore (Scanfs.write fs name (payload rng key))
          | 5 | 6 -> ignore (Scanfs.read fs name)
          | 7 -> ignore (Scanfs.exists fs name)
          | 8 -> ignore (Scanfs.delete fs name)
          | 9 -> ignore (Scanfs.append fs name (String.make (1 + Prng.int rng 3) 'y'))
          | 10 ->
            ignore
              (Scanfs.rename fs
                 ~src:fs_names.(Prng.int rng (Array.length fs_names))
                 ~dst:fs_names.(Prng.int rng (Array.length fs_names)))
          | _ -> Scanfs.evict fs (Prng.int rng fs_disk_blocks)
        in
        { Harness.random_op; daemon = Some (fun () -> Scanfs.sync fs) });
  }

let all =
  [ multiset_vector; multiset_btree; jvector; string_buffer; blink_tree; cache; scanfs ]

let find name = List.find (fun s -> s.name = name) all
