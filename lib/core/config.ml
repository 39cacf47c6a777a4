(** DPMR build configuration: replication design × diversity transformation
    × state comparison policy — the three tunable axes the dissertation
    evaluates. *)

(** Pointer-in-memory handling strategy (the key design choice of
    Chapters 2 and 4). *)
type mode =
  | Sds  (** Shadow Data Structures: pointers in memory are comparable;
             ROP/NSOP pairs live in shadow objects (§2.2) *)
  | Mds  (** Mirrored Data Structures: replica memory mirrors application
             memory; replica pointers stored in replica memory (§4.1) *)

(** Diversity transformations (Table 2.8). *)
type diversity =
  | No_diversity  (** implicit diversity from intra-process layout only *)
  | Pad_malloc of int  (** grow replica heap requests by a static amount *)
  | Zero_before_free  (** zero replica buffers prior to deallocation *)
  | Rearrange_heap  (** randomize replica heap object placement *)
  | Pad_alloca of int
      (** grow replica *stack* allocations by a static amount — the
          production-version extension §2.6 sketches ("similar techniques
          could easily be applied to stack memory") *)

(** State comparison policies (§2.7). *)
type policy =
  | All_loads
  | Temporal of int64
      (** 64-bit mask; bit [i] of the rolling counter decides whether load
          check [i mod 64] executes (Table 2.9) *)
  | Static of float  (** compile-time probability that a load site keeps its check *)

(** Per-site voting rule across the N replicas (N-version extension).
    With a single replica the two coincide: one mismatch is both "any"
    and a majority. *)
type vote =
  | Any_mismatch  (** any replica disagreeing with the application detects *)
  | Majority  (** more than N/2 replicas must disagree *)

type t = {
  mode : mode;
  diversity : diversity;
  policy : policy;
  seed : int64;  (** drives static-policy coin flips and rearrange-heap *)
  replicas : int;  (** N >= 1 diverse replicas; 1 is the paper's design *)
  families : string list;
      (** diversity-family names ({!Diversity_family} registry), applied
          to every replica with per-replica deterministic seeding *)
  vote : vote;
}

let default =
  {
    mode = Sds;
    diversity = No_diversity;
    policy = All_loads;
    seed = 42L;
    replicas = 1;
    families = [];
    vote = Any_mismatch;
  }

(* The three masks evaluated in §2.7: repeating the printed 32-bit
   constants to 64 bits gives the stated 1/8, 1/2 and 7/8 densities. *)
let temporal_mask_1_8 = 0x8080808080808080L
let temporal_mask_1_2 = 0xAAAAAAAAAAAAAAAAL
let temporal_mask_7_8 = 0xFEFEFEFEFEFEFEFEL

(* ---------------- canonical atoms ----------------

   Every textual form of a configuration axis — cache key, wire frame,
   CLI value, figure label — is built from these printers and read back
   by their parsers, which are also where out-of-range values are
   refused. *)

(* Far above any figure (N <= 3) yet small enough that the N-replica
   transform stays cheap: an unbounded count grows the transformed
   program without limit before any budget applies. *)
let max_replicas = 64

(* 64x the largest pad any figure or Rx step uses (1024): a larger pad
   grows the simulated heap until the host runs out of memory. *)
let max_pad = 65536

let mode_name = function Sds -> "sds" | Mds -> "mds"

let mode_of_name = function
  | "sds" -> Ok Sds
  | "mds" -> Ok Mds
  | s -> Error (Printf.sprintf "unknown mode %S (want sds | mds)" s)

let diversity_name = function
  | No_diversity -> "no-diversity"
  | Pad_malloc n -> Printf.sprintf "pad-malloc-%d" n
  | Zero_before_free -> "zero-before-free"
  | Rearrange_heap -> "rearrange-heap"
  | Pad_alloca n -> Printf.sprintf "pad-alloca-%d" n

let diversity_of_name s =
  let pad fmt = Scanf.sscanf_opt s fmt Fun.id in
  let sized mk n =
    if n >= 0 && n <= max_pad then Ok (mk n)
    else Error (Printf.sprintf "pad size must be >= 0 and <= %d bytes (got %d)" max_pad n)
  in
  match (s, pad "pad-malloc-%d%!", pad "pad-alloca-%d%!") with
  | ("no-diversity" | "none"), _, _ -> Ok No_diversity
  | "zero-before-free", _, _ -> Ok Zero_before_free
  | "rearrange-heap", _, _ -> Ok Rearrange_heap
  | _, Some n, _ -> sized (fun n -> Pad_malloc n) n
  | _, _, Some n -> sized (fun n -> Pad_alloca n) n
  | _ -> Error (Printf.sprintf "unknown diversity %S" s)

(* full fidelity: the exact 64-bit mask and the exact float *)
let policy_atom = function
  | All_loads -> "all-loads"
  | Temporal m -> Printf.sprintf "temporal-%Lx" m
  | Static f -> Printf.sprintf "static-%h" f

let policy_of_atom s =
  let arg fmt = Scanf.sscanf_opt s fmt Fun.id in
  match (s, arg "temporal-%Lx%!", arg "static-%s%!") with
  | "all-loads", _, _ -> Ok All_loads
  | _, Some m, _ -> Ok (Temporal m)
  | _, _, Some p -> (
      match float_of_string_opt p with
      | Some f when f >= 0. && f <= 1. -> Ok (Static f)
      | Some f -> Error (Printf.sprintf "static probability must be in [0,1] (got %g)" f)
      | None -> Error (Printf.sprintf "bad static probability %S" p))
  | _ -> Error (Printf.sprintf "unknown policy %S" s)

(* display label: rounds [Static] and counts [Temporal] mask bits *)
let policy_name = function
  | All_loads -> "all-loads"
  | Temporal m ->
      let bits = ref 0 in
      for i = 0 to 63 do
        if Int64.logand (Int64.shift_right_logical m i) 1L = 1L then incr bits
      done;
      Printf.sprintf "temporal-%d/64" !bits
  | Static f -> Printf.sprintf "static-%d%%" (int_of_float (f *. 100.))

let vote_name = function Any_mismatch -> "any-mismatch" | Majority -> "majority"

let vote_of_name = function
  | "any-mismatch" -> Ok Any_mismatch
  | "majority" -> Ok Majority
  | s -> Error (Printf.sprintf "unknown vote %S (want any-mismatch | majority)" s)

let families_atom fs = String.concat "+" fs
let families_of_atom s = String.split_on_char '+' s |> List.filter (fun f -> f <> "")

let check_replicas n =
  if n >= 1 && n <= max_replicas then Ok n
  else Error (Printf.sprintf "replica count must be in 1..%d (got %d)" max_replicas n)

let nversion_default c =
  c.replicas = default.replicas && c.families = default.families && c.vote = default.vote

(* The N-version axes render only when non-default, so every display
   label of the paper's single-replica grid is unchanged. *)
let nversion_suffix c =
  if nversion_default c then ""
  else
    Printf.sprintf "/n%d%s%s" c.replicas
      (match c.families with [] -> "" | fs -> "/" ^ families_atom fs)
      (if c.vote = default.vote then "" else "/" ^ vote_name c.vote)

let name c =
  Printf.sprintf "%s/%s/%s%s" (mode_name c.mode) (diversity_name c.diversity)
    (policy_name c.policy) (nversion_suffix c)
