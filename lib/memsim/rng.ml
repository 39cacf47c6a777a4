(** Deterministic pseudo-random stream (splitmix64).

    Every source of randomness in the system — rearrange-heap's
    [randInt(1,20)], static load-checking's compile-time coin flips,
    initial heap/stack garbage, workload input generation — draws from a
    seeded instance of this module, which is what makes whole experiments
    bit-reproducible. *)

type t = { mutable state : int64 }

let create seed = { state = seed }

let golden = 0x9E3779B97F4A7C15L

(* the splitmix64 output function, a pure [int64] expression so that it
   stays unboxed wherever it inlines *)
let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let next t =
  t.state <- Int64.add t.state golden;
  mix t.state

(** [int t bound] is uniform in [0, bound). *)
let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  Int64.to_int (Int64.unsigned_rem (next t) (Int64.of_int bound))

(** [range t lo hi] is uniform in [lo, hi] inclusive. *)
let range t lo hi = lo + int t (hi - lo + 1)

(** [float t] is uniform in [0, 1). *)
let float t =
  Int64.to_float (Int64.shift_right_logical (next t) 11) /. 9007199254740992.0

(** Stateless hash of two ints — used for deterministic page garbage.
    The first [next] of a stream seeded with [a lxor (b * golden)],
    without building the stream: it inlines into [Mem]'s page fill,
    which calls it 512 times per page, with no allocation. *)
let[@inline] hash2 a b =
  mix
    (Int64.add
       (Int64.logxor (Int64.of_int a) (Int64.mul (Int64.of_int b) golden))
       golden)
