(** Parallel experiment engine.

    All experiment drivers go through [run_specs] instead of calling
    [Experiment.run_variant] in a loop.  The engine:

    - deduplicates identical specs inside a batch and serves previously
      seen specs from the content-addressed result [Cache];
    - executes the remaining jobs on a fixed pool of OCaml 5 domains
      ([Pool]), each worker holding its own experiment contexts (programs
      carry internal caches, so a [Prog.t] must never cross domains);
    - returns classifications keyed by input position, so output is
      byte-identical to the serial engine regardless of completion order
      or worker count;
    - records per-job wall time and simulated cost in [Telemetry] and
      reports progress on long grids. *)

module Experiment = Dpmr_fi.Experiment
module Workloads = Dpmr_workloads.Workloads

type t = {
  jobs : int;
  salt : string;
  cache : Cache.t option;
  telemetry : Telemetry.t;
  supervisor : Supervisor.t;
  progress : bool;
  pool : Pool.t option;
      (** resident worker pool, reused across batches; [None] runs every
          batch on transient domains (the historical behaviour) *)
  dispatcher : Dispatch.t option;
      (** remote scatter/gather: cache misses go to resident workers
          over the wire instead of the local pool, with the local pool
          as the degradation path ([report all --workers]) *)
}

let default_jobs () = Pool.default_size ()

let create ?jobs ?(use_cache = true) ?(cache_dir = Cache.default_dir)
    ?(salt = Job.default_salt) ?policy ?(progress = true) ?(resident = false) ?dispatcher () =
  let jobs = match jobs with Some j -> max 1 j | None -> default_jobs () in
  let cache = if use_cache then Some (Cache.load ~dir:cache_dir ~salt ()) else None in
  {
    jobs;
    salt;
    cache;
    telemetry = Telemetry.create ();
    supervisor = Supervisor.create ?policy ();
    progress;
    pool = (if resident && jobs > 1 then Some (Pool.create ~size:jobs ()) else None);
    dispatcher;
  }

let jobs t = t.jobs
let dispatcher t = t.dispatcher
let telemetry t = t.telemetry
let supervisor t = t.supervisor
let cache_stats t = Option.map Cache.stats t.cache

let cache_mem t spec =
  match t.cache with
  | None -> false
  | Some c -> Cache.mem c (Job.hash ~salt:t.salt spec)

let drain t = Option.iter Cache.flush t.cache

let close t =
  Option.iter Cache.flush t.cache;
  Option.iter Cache.close t.cache;
  Option.iter Pool.shutdown t.pool

(* Batches go to the resident pool when there is one; otherwise to a
   transient per-batch pool. *)
let pool_map t ?progress f xs =
  match t.pool with
  | Some p -> Pool.map_on p ?progress f xs
  | None -> Pool.map ?progress ~jobs:t.jobs f xs

(* ---------------- per-domain experiment contexts ---------------- *)

(* Each domain builds and keeps its own [Experiment.t] per (workload,
   scale, seed): golden runs are cheap relative to a grid, and sharing a
   program across domains would race on its internal caches. *)
let experiments_key :
    (string * int * int64, Experiment.t) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 8)

let experiment_for (spec : Job.spec) =
  let tbl = Domain.DLS.get experiments_key in
  let key = (spec.Job.workload, spec.Job.scale, spec.Job.exp_seed) in
  match Hashtbl.find_opt tbl key with
  | Some e -> e
  | None ->
      let entry = Workloads.find spec.Job.workload in
      let wk =
        Experiment.workload spec.Job.workload (fun () ->
            entry.Workloads.build ~scale:spec.Job.scale ())
      in
      let e = Experiment.make ~seed:spec.Job.exp_seed wk in
      Hashtbl.replace tbl key e;
      e

let adjusted (spec : Job.spec) =
  let e = experiment_for spec in
  if Int64.equal e.Experiment.budget spec.Job.budget then e
  else { e with Experiment.budget = spec.Job.budget }

let execute (spec : Job.spec) =
  Experiment.run_variant ~seed:spec.Job.run_seed (adjusted spec) spec.Job.variant

(* ---------------- progress reporting ---------------- *)

let progress_fn t n =
  if (not t.progress) || n < 32 then None
  else begin
    let step = max 8 (n / 8) in
    Some
      (fun ~done_ ~total ->
        if done_ mod step = 0 || done_ = total then
          Printf.eprintf "[engine] %d/%d jobs done\n%!" done_ total)
  end

(* ---------------- batch execution ---------------- *)

let run_specs_r t specs =
  match specs with
  | [] -> []
  | _ ->
      let t0 = Telemetry.now () in
      let n = List.length specs in
      let keyed = List.map (fun s -> (Job.hash ~salt:t.salt s, s)) specs in
      let results = Array.make n None in
      (* serve cache hits; group the misses by key so identical specs
         inside one batch execute once *)
      let order = ref [] (* unique missing keys, first-seen order *) in
      let missing : (string, Job.spec * int list) Hashtbl.t = Hashtbl.create 64 in
      List.iteri
        (fun i (key, spec) ->
          (* within-batch duplicates join the miss group of their key even
             when the cache is disabled *)
          match Hashtbl.find_opt missing key with
          | Some (s, idxs) -> Hashtbl.replace missing key (s, i :: idxs)
          | None -> (
              let cached = match t.cache with Some c -> Cache.find c key | None -> None in
              match cached with
              | Some cls -> results.(i) <- Some (Experiment.Run cls)
              | None ->
                  Hashtbl.replace missing key (spec, [ i ]);
                  order := key :: !order))
        keyed;
      let cached_count = n - List.fold_left (fun a k -> a + List.length (snd (Hashtbl.find missing k))) 0 !order in
      Telemetry.record_cached t.telemetry cached_count;
      let retries_before = Supervisor.retries t.supervisor in
      let to_run = List.rev_map (fun key -> (key, fst (Hashtbl.find missing key))) !order in
      (* every job runs under supervision: deadline, retry-with-backoff
         for transient failures, quarantine for deterministic ones — a
         failure fills its own slots and cannot abort the batch *)
      let exec (key, spec) =
        let t1 = Telemetry.now () in
        let r = Supervisor.run t.supervisor ~key (fun () -> execute spec) in
        let outcome =
          match r with
          | Ok cls -> Dispatch.Done cls
          | Error (fl : Supervisor.failure) ->
              Dispatch.Hole
                {
                  Dispatch.hreason = Supervisor.reason_name fl.Supervisor.freason;
                  hattempts = fl.Supervisor.fattempts;
                  herror = fl.Supervisor.ferror;
                }
        in
        ((key, spec), outcome, Telemetry.now () -. t1)
      in
      let run_local items = pool_map t ?progress:(progress_fn t (List.length items)) exec items in
      let ran =
        match t.dispatcher with
        | None -> run_local to_run
        | Some d ->
            (* scatter the misses to remote workers; the local pool is
               the degradation path *)
            Dispatch.run d ~local:run_local to_run
      in
      List.iter
        (fun ((key, spec), outcome, wall) ->
          let result =
            match outcome with
            | Dispatch.Done cls ->
                Telemetry.record_job t.telemetry ~wall ~cost:cls.Experiment.cost;
                Option.iter (fun c -> Cache.add c ~key ~spec_repr:(Job.repr spec) cls) t.cache;
                Experiment.Run cls
            | Dispatch.Hole h ->
                Telemetry.record_failed t.telemetry ~wall;
                Experiment.Job_failed
                  {
                    Experiment.fail_reason = h.Dispatch.hreason;
                    fail_attempts = h.Dispatch.hattempts;
                    fail_error = h.Dispatch.herror;
                  }
          in
          let _, idxs = Hashtbl.find missing key in
          List.iter (fun i -> results.(i) <- Some result) idxs)
        ran;
      Telemetry.record_retries t.telemetry (Supervisor.retries t.supervisor - retries_before);
      Option.iter Cache.flush t.cache;
      Telemetry.record_batch t.telemetry ~wall:(Telemetry.now () -. t0);
      Array.to_list results
      |> List.map (function
           | Some r -> r
           | None -> failwith "Engine.run_specs_r: missing result")

(** The historical strict interface: callers that cannot represent holes
    get the first failure as an exception — after the whole batch ran,
    so completed results are already persisted in the cache. *)
let run_specs t specs =
  List.map
    (function
      | Experiment.Run cls -> cls
      | Experiment.Job_failed f ->
          failwith
            (Printf.sprintf "Engine.run_specs: job failed (%s after %d attempt(s): %s)"
               f.Experiment.fail_reason f.Experiment.fail_attempts f.Experiment.fail_error))
    (run_specs_r t specs)

let run_spec t spec = List.hd (run_specs t [ spec ])

let run_tasks t thunks =
  match thunks with
  | [] -> []
  | _ ->
      let t0 = Telemetry.now () in
      let outs =
        pool_map t
          (fun f ->
            let t1 = Telemetry.now () in
            let r = f () in
            (r, Telemetry.now () -. t1))
          thunks
      in
      List.iter (fun (_, wall) -> Telemetry.record_task t.telemetry ~wall) outs;
      Telemetry.record_batch t.telemetry ~wall:(Telemetry.now () -. t0);
      List.map fst outs

(* ---------------- summary ---------------- *)

let summary_lines t =
  Telemetry.summary_lines t.telemetry ~workers:t.jobs ~cache:(cache_stats t)
    ~tier:(Dpmr_vm.Vm.tier_stats ())
    ?dispatch:t.dispatcher

(** Printed to stderr so report output stays byte-identical across
    worker counts and cache states. *)
let print_summary t =
  List.iter (fun l -> Printf.eprintf "%s\n" l) (summary_lines t);
  flush stderr
