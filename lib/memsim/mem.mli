(** Simulated flat 64-bit address space with demand-mapped 4 KiB pages.

    Segment map (chosen so wild pointers usually fault while overflows
    between neighbouring objects corrupt silently — the two behaviours
    §2.5 distinguishes):

    {v
      [0, 0x10000)         guard: never mapped (null page)
      [0x0001_0000, ...)   globals, laid out at load time
      [0x4000_0000, ...)   stack, grows upward
      [0x8000_0000, ...)   heap wilderness
    v}

    Accesses to an unmapped page raise {!Fault} — a crash, which the
    experiment classification counts as natural detection (§3.6).  Pages
    are filled with deterministic garbage when first mapped, so
    uninitialized heap/stack reads see arbitrary but reproducible data.

    Pages live in dense per-segment tables (array index per access, no
    hashing). *)

type fault =
  | Unmapped of int64
  | Invalid_free of int64  (** allocator magic-check failure *)
  | Double_free of int64

exception Fault of fault

val fault_to_string : fault -> string

val page_size : int
val globals_base : int64
val stack_base : int64
val heap_base : int64

type fill = Fill_zero | Fill_garbage

type t = {
  seed : int64;
  mutable mapped_pages : int;  (** footprint statistic *)
  mutable g_tbl : Bytes.t array;  (** globals pages, indexed from page 0 *)
  mutable s_tbl : Bytes.t array;  (** stack pages, from [stack_base] *)
  mutable h_tbl : Bytes.t array;  (** heap pages, from [heap_base] *)
}

val create : ?seed:int64 -> unit -> t
val map_page : t -> int -> fill -> unit

(** Map every page overlapping [addr, addr+len). *)
val map_range : t -> int64 -> int -> fill -> unit

val is_mapped : t -> int64 -> bool

(** {1 Accessors} — little-endian; multi-byte accesses may straddle
    pages. *)

val read_u8 : t -> int64 -> int
val write_u8 : t -> int64 -> int -> unit
val read_bytes : t -> int64 -> int -> Bytes.t
val write_bytes : t -> int64 -> Bytes.t -> int -> int -> unit
val read_int : t -> int64 -> int -> int64
val write_int : t -> int64 -> int -> int64 -> unit
val read_f64 : t -> int64 -> float
val write_f64 : t -> int64 -> float -> unit

(** Set [len] bytes from [addr] to a byte value, page-wise
    ([Bytes.fill] per touched page rather than a byte loop). *)
val fill : t -> int64 -> int -> int -> unit

(** memmove semantics (overlap-safe copy). *)
val move : t -> dst:int64 -> src:int64 -> int -> unit
