(** Model of the Scan file system (paper §7.3, [9, 13]).

    The real Scan FS is a closed-source, write-optimized Windows NT
    filesystem of about 5 KLOC; the paper reports that an earlier VYRD
    prototype found several concurrency bugs in it, all in its cache module
    and "very similar to those found in Boxwood's Cache".  This module is
    the substitution documented in DESIGN.md: a small filesystem with the
    same architecture — a directory of fixed-size files whose blocks live
    behind a write-back block cache, flushed by a background thread that
    sweeps the blocks in ascending order (the "scan" discipline that gives
    the filesystem its name).

    Files have a fixed capacity of [blocks_per_file] blocks of [block_size]
    bytes; [write] pads its payload.  Every public file operation appears
    atomic: its block-cache writes and the directory update are bracketed in
    one commit block whose commit action is the directory write.

    The injectable bug mirrors §7.2.2: overwriting an already-dirty cached
    block copies bytes in place without the cache's lock, so the scan flush
    can push a torn block to disk and mark the entry clean; the corruption
    surfaces when the clean entry is evicted without write-back. *)

type bug = Unprotected_dirty_copy

type t

val block_size : int
val blocks_per_file : int

(** Content capacity of a file in bytes. *)
val file_size : int

(** [create_fs ?bugs ~disk_blocks ctx] — an empty filesystem over a disk of
    [disk_blocks] blocks. *)
val create_fs : ?bugs:bug list -> disk_blocks:int -> Vyrd.Instrument.ctx -> t

(** [create t name] makes an empty file; [false] if it exists. *)
val create : t -> string -> bool

(** [write t name data] replaces the contents ([data] padded/truncated to
    {!file_size}) via freshly allocated blocks (write-optimized,
    copy-on-write); [false] if the file does not exist or the disk is
    full. *)
val write : t -> string -> string -> bool

(** [read t name] returns the contents, or [None] for a missing file. *)
val read : t -> string -> string option

(** [append t name data] appends within the file's fixed capacity; [false]
    if the file is missing or the data does not fit.  Copy-on-write like
    {!write}. *)
val append : t -> string -> string -> bool

(** [rename t ~src ~dst] atomically moves a file: a two-directory-entry
    update published by one commit block (the multi-resource pattern of the
    paper's [InsertPair], §2.1).  [false] if [src] is missing or [dst]
    exists. *)
val rename : t -> src:string -> dst:string -> bool

val delete : t -> string -> bool
val exists : t -> string -> bool

(** One scan pass of the flush daemon: writes dirty blocks to disk in
    ascending block order and marks them clean.  Internal method. *)
val sync : t -> unit

(** Drop block [b]'s cache entry (write-back only when dirty).  Internal. *)
val evict : t -> int -> unit

(** [viewdef ~disk_blocks] — every named file's contents: a block's bytes
    come from its cache entry when clean or dirty, from disk otherwise.
    [disk_blocks] sizes the table of precomputed variable names; the view
    reads any block a directory entry names. *)
val viewdef : disk_blocks:int -> Vyrd.View.t
val spec : Vyrd.Spec.t

(** The cache-consistency invariant the Scan prototype checked (cf. §7.2.1
    invariant (i)): a clean cached block holds exactly the disk's bytes.
    Catches the torn-flush corruption at the flush itself, before any evict
    or read exposes it. *)
val invariant_clean_matches_disk : disk_blocks:int -> Vyrd.Checker.invariant
