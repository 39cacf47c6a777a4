(** Binned first-fit heap allocator over {!Mem}.

    Reproduces the behaviours the dissertation's detection conditions
    (§2.5) and fault model (§3.4) rely on: size-class rounding with a
    24-byte minimum payload (so small resize faults can be hidden by
    overallocation), inline 16-byte chunk headers (so overflows corrupt
    neighbouring metadata and bad frees crash on the magic check),
    free-list poisoning of freed payloads (metadata in freed buffers),
    and LIFO reuse (so dangling pointers get paired with fresh objects —
    the behaviour rearrange-heap disrupts). *)

type stats = {
  mutable n_malloc : int;
  mutable n_free : int;
  mutable live_bytes : int;
  mutable peak_bytes : int;
}

type t

val create : Mem.t -> t

(** Round a request to its size class (minimum payload 24, then to a
    16-byte multiple). *)
val round_size : int -> int

(** Allocate [n] bytes; returns the payload address. *)
val malloc : t -> int -> int64

(** Free a payload.  Raises {!Mem.Fault} on non-chunk pointers (magic
    check) and double frees; poisons the first 8 payload bytes with the
    free-list link. *)
val free : t -> int64 -> unit

(** Usable payload size — [heapBufSize] in the zero-before-free
    transformation (Table 2.8). *)
val usable_size : t -> int64 -> int

val is_heap_chunk : t -> int64 -> bool
val stats : t -> stats

(** Live heap bytes (the [stats] counter, without going through the
    record) — used by the per-load/store cache-pressure cost term. *)
val live_bytes : t -> int

(** Bytes between heap base and the wilderness pointer (high-water
    footprint). *)
val footprint_bytes : t -> int
