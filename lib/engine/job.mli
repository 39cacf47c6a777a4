(** Serializable experiment-run requests (the engine's job model).

    Every run is a pure function of its spec (seeded splitmix64,
    deterministic interpreter — DESIGN.md §6), so the spec doubles as a
    cache identity: [hash] folds a canonical rendering of every field
    plus a code-version salt. *)

module Experiment = Dpmr_fi.Experiment

type spec = {
  workload : string;  (** name in the [Workloads] registry *)
  scale : int;
  exp_seed : int64;  (** seed of the golden/reference run *)
  run_seed : int64;  (** seed of the measured run *)
  budget : int64;  (** cost budget (~20x golden, §3.6) *)
  variant : Experiment.variant;
}

val default_salt : string
(** Current code-version salt.  Bump it whenever transforms, VM, cost
    model, allocator or workload builders change semantics: it is folded
    into every content hash, invalidating stale cached results. *)

val make :
  Experiment.t ->
  workload:string ->
  scale:int ->
  run_seed:int64 ->
  Experiment.variant ->
  spec
(** Spec for one run of an existing experiment context ([exp_seed] and
    [budget] are taken from the context). *)

val repr : spec -> string
(** Canonical, full-fidelity rendering (the hashed content). *)

val hash : ?salt:string -> spec -> string
(** 16-hex-digit FNV-1a content hash of [salt + repr]. *)

val config_repr : Dpmr_core.Config.t -> string
(** Full-fidelity rendering of a configuration (a [repr] component). *)

(** One persisted cache record. *)
type entry = {
  key : string;  (** [hash] of the spec at write time *)
  salt : string;  (** code-version salt at write time *)
  spec_repr : string;  (** [repr], for human inspection of the cache *)
  cls : Experiment.classification;
}

val entry_to_line : entry -> string
(** One line of JSON (no trailing newline). *)

val entry_of_line : string -> entry option
(** Parse a cache line; [None] on malformed input (treated as a miss). *)

(** {2 Flat-JSON helpers}

    The cache lines — and the serving wire protocol built on the same
    convention — are single flat JSON objects with string / bool /
    integer / null values only. *)

val json_escape : string -> string

val parse_flat_object :
  string -> (string * [ `String of string | `Bool of bool | `Int of int64 | `Null ]) list option
(** Parse one flat object into its field list (reverse field order);
    [None] on any malformed input. *)
