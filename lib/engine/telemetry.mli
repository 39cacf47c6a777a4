(** Run telemetry: per-job wall time and simulated-cost accounting,
    aggregated across engine batches. *)

type t = {
  mutable jobs_run : int;
  mutable jobs_cached : int;
  mutable jobs_failed : int;  (** specs the supervisor gave up on *)
  mutable retries : int;  (** supervised attempts beyond each job's first *)
  mutable tasks_run : int;
  mutable cost_units : int64;
  mutable busy_seconds : float;  (** sum of per-job wall times *)
  mutable wall_seconds : float;  (** elapsed time inside engine batches *)
  mutable batches : int;
  mutable trace : Dpmr_trace.Trace.summary;
      (** merged per-domain trace-sink summaries (traced campaigns only) *)
  mu : Mutex.t;
}

val create : unit -> t
val now : unit -> float
val record_job : t -> wall:float -> cost:int64 -> unit
val record_task : t -> wall:float -> unit
val record_cached : t -> int -> unit
val record_failed : t -> wall:float -> unit
val record_retries : t -> int -> unit

val record_trace : t -> Dpmr_trace.Trace.summary -> unit
(** Merge one sink's summary into the campaign totals (thread-safe; call
    once per retired sink). *)
val record_batch : t -> wall:float -> unit

val speedup_estimate : t -> float option
(** Busy time over batch wall time — the engine's advantage over running
    every executed job back-to-back on one domain. *)

val summary_lines :
  ?tier:int * int ->
  ?dispatch:Dispatch.t ->
  t ->
  workers:int ->
  cache:Cache.stats option ->
  string list
(** [tier] = (functions promoted, deopts) from [Vm.tier_stats]; the
    deopt count is always 0 and stays because perfbench reads it.
    Passed in by the engine at summary time to keep this module free of
    VM dependencies; a tier line appears only when either counter is
    non-zero, preserving historical summary shapes.
    [dispatch] adds per-host scatter/gather lines for campaigns run
    with [--workers]. *)

val to_json :
  ?tier:int * int ->
  ?dispatch:Dispatch.t ->
  t ->
  workers:int ->
  cache:Cache.stats option ->
  string
(** Machine-readable snapshot of the campaign (the [--telemetry-json]
    payload): one JSON object with stable keys. *)
