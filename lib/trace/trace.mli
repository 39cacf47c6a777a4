(** Pay-for-use execution tracing.

    A sink is a fixed-size binary ring buffer of 40-byte event slots.
    Installation follows the [Vm.set_poll_hook] pattern: the sink is
    domain-local and nullable; producers ([Vm], [Allocator], the DPMR
    wrappers) capture {!current} once at construction time, so a [None]
    sink costs one pointer test per would-be event and an installed sink
    costs a handful of unchecked [Bytes] writes — no OCaml-heap
    allocation per event in either case.  Strings (function names,
    detection labels, phase labels) are interned to small ids on first
    use; steady-state emission never allocates.

    When the ring wraps, the oldest events are overwritten and counted
    in {!dropped} — emission never fails and never grows memory. *)

type t

val create : ?capacity:int -> ?sample_every:int -> unit -> t
(** [capacity] is rounded up to a power of two (slots, default [65536];
    40 bytes each).  Block-retirement events are sampled one-in-
    [sample_every] (rounded up to a power of two, default [64]); all
    other events are always recorded. *)

val set_clock : t -> (unit -> int) -> unit
(** Cost clock used by producers that have no cost counter of their own
    (the allocator, phase markers).  [Vm.create] points it at the VM's
    [cost] field. *)

val capacity : t -> int
val emitted : t -> int
val dropped : t -> int

(** {1 Domain-local installation} *)

val current : unit -> t option
val set : t option -> unit

val with_sink : t -> (unit -> 'a) -> 'a
(** Install the sink for the duration of [f] on this domain, restoring
    the previous sink afterwards (exception-safe). *)

(** {1 Emission} — hot paths; no allocation after name interning. *)

val intern : t -> string -> int
val sample_block : t -> cost:int -> fname:string -> blk:int -> unit
val emit_call_enter : t -> cost:int -> fname:string -> unit
val emit_call_exit : t -> cost:int -> fname:string -> unit
val emit_malloc : t -> addr:int64 -> requested:int -> granted:int -> live:int -> unit
val emit_free : t -> addr:int64 -> live:int -> unit
val emit_store : t -> cost:int -> addr:int64 -> bytes:int -> unit
val emit_write : t -> cost:int -> addr:int64 -> len:int -> unit
val emit_mirror : t -> cost:int -> app:int64 -> rep:int64 -> len:int -> unit

val emit_compare : t -> cost:int -> app:int64 -> rep:int64 -> len:int -> unit
(** A replica comparison that passed.  Wrapper-level byte comparisons
    carry both addresses and the length; inline load-checks compiled by
    the diversity transform carry [app = rep = -1L, len = 0] (the
    comparison site has no address at branch time). *)

val emit_detect : t -> cost:int -> what:string -> addr:int64 -> off:int -> unit
(** A detection firing.  [addr]/[off] name the first divergent app-space
    byte when known (wrapper byte comparisons); [-1L]/[-1] otherwise. *)

val emit_fi_mark : t -> cost:int -> unit
val emit_phase : t -> label:string -> unit

(** Tier-transition outcome at a hot-function boundary.  The VM emits
    only [Tier_refused]: a run with a sink is never promoted, so a
    traced run records the refusal and nothing else.  [Tier_promote] and
    [Tier_deopt] keep their wire codes so older traces still decode. *)
type transition = Tier_refused | Tier_promote | Tier_deopt

val emit_tier : t -> cost:int -> fname:string -> transition:transition -> unit

(** {1 Decoding} *)

type event =
  | Block of { fn : string; blk : int }
  | Call_enter of string
  | Call_exit of string
  | Malloc of { addr : int64; requested : int; granted : int; live : int }
  | Free of { addr : int64; live : int }
  | Store of { addr : int64; bytes : int }
  | Write of { addr : int64; len : int }
  | Mirror of { app : int64; rep : int64; len : int }
  | Compare of { app : int64; rep : int64; len : int }
  | Detect of { what : string; addr : int64; off : int }
  | Fi_mark
  | Phase of string
  | Tier of { fn : string; transition : transition }

type record = { cost : int; ev : event }

val snapshot : t -> record array
(** Chronological decode of the (up to [capacity]) most recent events.
    Safe to call repeatedly; does not consume the ring. *)

(** {1 Summaries} — mergeable across domains via [Telemetry]. *)

type summary = {
  s_emitted : int;
  s_dropped : int;
  s_detections : int;
  s_comparisons : int;
  s_fi_marks : int;
}

val summary : t -> summary
val zero_summary : summary
val add_summary : summary -> summary -> summary

val pp_event : Format.formatter -> event -> unit
val pp_record : Format.formatter -> record -> unit
