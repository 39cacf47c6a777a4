(** Content-addressed, crash-durable result cache: classifications
    persisted as CRC32-framed line-delimited JSON under [_dpmr_cache/],
    keyed by [Job.hash] and {b sharded by the hash's leading hex digit}
    into [results-<x>.jsonl] (16 shards), so concurrent appenders —
    worker domains of one process, or several processes federating one
    cache directory — never contend on a single file.

    Crash durability: each record reaches the OS in one [O_APPEND]
    write as it is added (concurrent appends interleave at record
    granularity, never mid-record) and shards are fsync'd every
    [flush_every] appends; a torn tail is dropped, counted and repaired
    on load; compaction is atomic per shard (temp file + rename).
    Stale-salt lines are evicted on load; damage of any kind degrades
    to counted misses, never to wrong or lost-beyond-the-tail
    results. *)

module Experiment = Dpmr_fi.Experiment

val default_dir : string
(** ["_dpmr_cache"]. *)

val shard_count : int
(** 16: one shard per leading hex digit of the job hash. *)

val shard_file : string -> int -> string
(** [shard_file dir i] — the jsonl path of shard [i]. *)

val shard_of_key : string -> int
(** The shard a key's record lives in. *)

val default_flush_every : int
(** 64: records between fsyncs of a shard's append channel. *)

type stats = {
  mutable hits : int;
  mutable misses : int;
  mutable evicted : int;  (** stale-salt lines dropped on load *)
  mutable damaged : int;  (** torn/corrupt/CRC-mismatched lines dropped on load *)
  mutable added : int;  (** results persisted this session *)
  forked : int;
      (** always 0: snapshot/fork execution and its fork-key records
          were removed; kept for the benchmark until its next revision *)
}

type t

val load : ?dir:string -> ?flush_every:int -> salt:string -> unit -> t
(** Load the cache: evict stale-salt entries, drop damaged lines,
    re-home records found in the wrong shard, and repair every shard
    that lost or gained lines by atomic compaction.  Fork-key records left by the removed snapshot/fork
    execution (a ["snap"] field, a ["fork:"] spec) load as ordinary
    entries under keys no spec hashes to, so they never hit. *)

val entries : t -> int

val mem : t -> string -> bool
(** Membership by content hash, without touching the hit/miss counters
    (the daemon's "was this verdict served from cache" probe). *)

val find : t -> string -> Experiment.classification option
(** Lookup by content hash; counts a hit or a miss.  Thread-safe; only
    the key's shard is locked. *)

val add : t -> key:string -> spec_repr:string -> Experiment.classification -> unit
(** Insert and append to the key's shard (no-op if the key is already
    present).  The record is pushed to the OS immediately; every
    [flush_every]-th append per shard also fsyncs. *)

val flush : t -> unit
(** Fsync every shard with unsynced appends. *)

val close : t -> unit
val stats : t -> stats

val clear : ?dir:string -> unit -> int
(** Delete all shard files and any compaction temp files; returns the
    number of intact entries removed. *)

type shard_stats = {
  sh_records : int;  (** intact entries in this shard file *)
  sh_current : int;  (** of those, entries under the given salt *)
  sh_damaged : int;  (** torn, corrupt or CRC-mismatched lines *)
}

type disk_stats = {
  path : string;  (** the cache directory *)
  files : int;  (** shard files present *)
  total : int;  (** intact entries on disk *)
  current : int;  (** entries under the given salt *)
  stale : int;  (** entries under any other salt *)
  damaged : int;  (** torn, corrupt or CRC-mismatched lines *)
  torn_tail : bool;  (** some file ends in an unterminated record *)
  bytes : int;
  per_shard : shard_stats array;
      (** one slot per shard file; the totals sum them.  Federated
          writers hash jobs across shards, so the [cache stats --json]
          consumer (the CI federated-cache verify step) can check the
          spread and pin damage to a shard. *)
}

val disk_stats : ?dir:string -> salt:string -> unit -> disk_stats
(** Scan all files without loading them (the [cache stats] / [cache
    verify] CLI view).  Read-only: performs no repair. *)

val disk_stats_to_json : disk_stats -> string
(** Machine-readable rendering of {!disk_stats} (the [cache stats
    --json] payload): one JSON object with stable keys. *)
