(** Deterministic chaos injection for the engine's own machinery
    ([--chaos] / [DPMR_CHAOS]).

    Worker attempts raise {!Injected_fault} or stall briefly and cache
    appends get torn mid-record, all decided by pure hashes of
    [(seed, key, attempt)] — a chaos run is exactly reproducible.
    Injections never target attempt numbers [>= burst], so a supervisor
    retrying at least [burst] times always recovers: with chaos on,
    report output must stay byte-identical to a chaos-off run. *)

(** The transient-failure class: the supervisor retries these. *)
exception Injected_fault of string

type t = {
  prob : float;  (** per-attempt injection probability *)
  seed : int64;
  burst : int;  (** attempts [>= burst] are never injected into *)
  max_delay : float;  (** cap on injected stalls, seconds *)
}

val make : ?prob:float -> ?seed:int64 -> ?burst:int -> ?max_delay:float -> unit -> t

val parse : string -> t option
(** ["1"], ["0.3"] or ["0.3,7"] ([prob[,seed]]); [None] on junk or
    [prob <= 0]. *)

val set : t option -> unit
(** Set the process-wide chaos config.  Call before worker domains
    spawn; workers only read. *)

val active : unit -> t option
(** Current config; consults [DPMR_CHAOS] on first use if {!set} was
    never called. *)

val with_chaos : t option -> (unit -> 'a) -> 'a
(** Run with the config pinned, restoring the previous one after. *)

val attempt_fault : key:string -> attempt:int -> unit
(** Execute the decision: no-op, brief stall, or raise
    {!Injected_fault}.  No-op when chaos is off. *)

val truncation : key:string -> len:int -> int option
(** Torn-write decision for a cache record of [len] bytes (newline
    included): [Some n] means persist only the first [n] bytes. *)
