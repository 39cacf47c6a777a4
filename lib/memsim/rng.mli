(** Deterministic pseudo-random stream (splitmix64).

    Every source of randomness in the system — rearrange-heap's
    [randInt], static load-checking's compile-time coin flips, initial
    heap/stack garbage, workload inputs — draws from a seeded instance,
    making whole experiments bit-reproducible. *)

type t

val create : int64 -> t
val next : t -> int64

(** Uniform in [0, bound). *)
val int : t -> int -> int

(** Uniform in [lo, hi], inclusive. *)
val range : t -> int -> int -> int

(** Uniform in [0, 1). *)
val float : t -> float

(** Stateless hash of two ints (deterministic page garbage). *)
val hash2 : int -> int -> int64
