(** DPMR build configuration: replication design × diversity
    transformation × state comparison policy — the three tunable axes the
    dissertation evaluates. *)

(** Pointer-in-memory handling strategy (the key design choice of
    Chapters 2 and 4). *)
type mode =
  | Sds
      (** Shadow Data Structures: pointers stored in memory are
          comparable; ROP/NSOP pairs live in shadow objects (§2.2) *)
  | Mds
      (** Mirrored Data Structures: replica memory mirrors application
          memory; replica pointers are stored in replica memory (§4.1) *)

(** Diversity transformations (Table 2.8). *)
type diversity =
  | No_diversity  (** implicit diversity from intra-process layout only *)
  | Pad_malloc of int  (** grow replica heap requests by a static amount *)
  | Zero_before_free  (** zero replica buffers prior to deallocation *)
  | Rearrange_heap  (** randomize replica heap object placement *)
  | Pad_alloca of int
      (** grow replica stack allocations (the §2.6 production-version
          extension to stack memory) *)

(** State comparison policies (§2.7). *)
type policy =
  | All_loads
  | Temporal of int64
      (** 64-bit mask; bit [counter] decides whether a check executes
          (Table 2.9) *)
  | Static of float  (** compile-time keep-probability per load site *)

(** Per-site voting rule across the N replicas (N-version extension);
    with one replica the two coincide. *)
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

(** SDS, no diversity, all loads, seed 42, one replica, no families,
    any-mismatch voting — the paper's configuration. *)
val default : t

(** The §2.7 masks: 1/8, 1/2 and 7/8 checking density. *)
val temporal_mask_1_8 : int64

val temporal_mask_1_2 : int64
val temporal_mask_7_8 : int64

(** {1 Canonical atoms}

    The one textual codec of the configuration axes: cache keys, wire
    frames, CLI values and figure labels are built from these printers.
    Each parser reads back exactly what its printer writes and returns
    [Error] on an unknown or out-of-range value. *)

val max_replicas : int

(** 65536: the largest [Pad_malloc] / [Pad_alloca] size the parser
    accepts. *)
val max_pad : int

val mode_name : mode -> string
val mode_of_name : string -> (mode, string) result
val diversity_name : diversity -> string

(** Also accepts ["none"]; pads must lie in [0 .. max_pad]. *)
val diversity_of_name : string -> (diversity, string) result

(** Full fidelity: [temporal-<hex mask>], [static-<hex float>]. *)
val policy_atom : policy -> string

(** A [Static] probability must lie in [0,1]. *)
val policy_of_atom : string -> (policy, string) result

(** Lossy display label ([temporal-8/64], [static-10%]). *)
val policy_name : policy -> string

val vote_name : vote -> string
val vote_of_name : string -> (vote, string) result
val families_atom : string list -> string
val families_of_atom : string -> string list

(** [Ok n] when [1 <= n <= max_replicas]. *)
val check_replicas : int -> (int, string) result

(** Replicas, families and vote are at their defaults: the paper's
    single-replica design, whose labels, cache keys and wire frames
    carry no N-version fields. *)
val nversion_default : t -> bool

(** Display rendering of the N-version axes; [""] when
    {!nversion_default}. *)
val nversion_suffix : t -> string

val name : t -> string
