(** Parallel experiment engine with content-addressed result cache.

    Experiment drivers submit batches of [Job.spec]s; the engine dedups
    identical specs, serves known ones from the on-disk cache, runs the
    rest on a fixed pool of OCaml 5 domains, and returns classifications
    in input order — so output is byte-identical to a serial run
    regardless of worker count. *)

module Experiment = Dpmr_fi.Experiment

type t

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()]. *)

val create :
  ?jobs:int ->
  ?use_cache:bool ->
  ?cache_dir:string ->
  ?salt:string ->
  ?policy:Supervisor.policy ->
  ?progress:bool ->
  ?resident:bool ->
  ?dispatcher:Dispatch.t ->
  unit ->
  t
(** Every cache miss runs as its own job, from zero.  [jobs] defaults
    to [default_jobs ()]; [use_cache] defaults to [true]
    (directory [Cache.default_dir]); [salt] defaults to
    [Job.default_salt]; [policy] is the supervision policy (deadline /
    retry / backoff, default [Supervisor.default_policy]); [progress]
    prints batch progress to stderr on long grids.  [resident] (default
    [false]) keeps one worker pool alive across batches instead of
    spawning domains per batch, so per-domain warmup (experiment
    contexts, lowered programs) is paid once — the mode long-lived
    embedders (the serving daemon, multi-figure reports) use.  A
    resident engine must be {!close}d; its domains otherwise park
    forever.  [dispatcher] scatters cache misses to remote workers
    ([report all --workers]) with the local pool as the degradation
    path; the engine's cache, figures, and result ordering are
    unchanged. *)

val jobs : t -> int

val dispatcher : t -> Dispatch.t option
(** The remote dispatcher wired in at {!create} time, for telemetry. *)
val telemetry : t -> Telemetry.t
val supervisor : t -> Supervisor.t
val cache_stats : t -> Cache.stats option

val cache_mem : t -> Job.spec -> bool
(** Whether the spec's verdict is already in the result cache, without
    touching the hit/miss counters.  [false] when caching is off. *)

val drain : t -> unit
(** Flush (and fsync) the result cache.  The graceful-shutdown path of
    the daemon and of interrupted batch reports. *)

val close : t -> unit
(** [drain], close the cache channels, and shut down the resident pool
    (if any), joining its domains. *)

val experiment_for : Job.spec -> Experiment.t
(** The per-domain experiment context (golden run, budget, prepared
    program) a spec executes against, built on first use and cached in
    domain-local storage.  Must be called on the domain that will run
    the experiment — contexts hold a [Prog.t] and must never cross
    domains; inside {!run_tasks} thunks is the intended place. *)

val run_specs_r : t -> Job.spec list -> Experiment.run_result list
(** Run a batch under supervision; the i-th result answers the i-th
    spec.  A job the supervisor gave up on (deadline, fatal exception,
    retries exhausted, quarantined) yields [Job_failed] in its own
    slots; the rest of the batch completes and is cached normally. *)

val run_specs : t -> Job.spec list -> Experiment.classification list
(** [run_specs_r] for callers that cannot represent holes: raises
    [Failure] on the first failed job — after the whole batch ran, so
    completed results are already persisted. *)

val run_spec : t -> Job.spec -> Experiment.classification

val run_tasks : t -> (unit -> 'a) list -> 'a list
(** Parallel map over ad-hoc thunks (uncached, telemetry-counted),
    results in input order.  Thunks must be self-contained: any [Prog.t]
    they touch must be built inside the thunk (programs carry internal
    caches and must not cross domains). *)

val summary_lines : t -> string list

val print_summary : t -> unit
(** Engine summary (jobs run/cached, cache hit rate, busy vs wall time,
    speedup estimate) on stderr. *)
