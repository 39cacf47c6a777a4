(** Parallel experiment engine.

    All experiment drivers go through [run_specs] instead of calling
    [Experiment.run_variant] in a loop.  The engine:

    - deduplicates identical specs inside a batch and serves previously
      seen specs from the content-addressed result [Cache];
    - executes the remaining jobs on the engine's one resident [Pool] of
      OCaml 5 domains, started by the first batch and joined by {!close};
      each worker keeps its own experiment contexts across batches
      (programs carry internal caches, so a [Prog.t] must never cross
      domains);
    - returns classifications keyed by input position, so output is
      byte-identical to the serial engine regardless of completion order
      or worker count;
    - records per-job wall time and simulated cost in [Telemetry] and
      reports progress on long grids. *)

module Experiment = Dpmr_fi.Experiment
module Workloads = Dpmr_workloads.Workloads

type t = {
  salt : string;
  cache : Cache.t option;
  telemetry : Telemetry.t;
  supervisor : Supervisor.t;
  progress : bool;
  pool : Pool.t;  (** resident worker pool, reused across batches *)
}

let default_jobs () = Pool.default_size ()

let create ?jobs ?(use_cache = true) ?(cache_dir = Cache.default_dir)
    ?(salt = Job.default_salt) ?policy ?(progress = true) () =
  let cache = if use_cache then Some (Cache.load ~dir:cache_dir ~salt ()) else None in
  {
    salt;
    cache;
    telemetry = Telemetry.create ();
    supervisor = Supervisor.create ?policy ();
    progress;
    pool = Pool.create ?size:jobs ();
  }

let jobs t = Pool.size t.pool
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
  Pool.shutdown t.pool

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

(* the end is marked on a raise too, so a failed batch cannot leave the
   telemetry's wall account open *)
let in_batch t f =
  Telemetry.batch_begin t.telemetry;
  Fun.protect ~finally:(fun () -> Telemetry.batch_end t.telemetry) f

let run_specs_r t specs =
  match specs with
  | [] -> []
  | _ ->
      in_batch t @@ fun () ->
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
        let result =
          match Supervisor.run t.supervisor ~key (fun () -> execute spec) with
          | Ok cls -> Experiment.Run cls
          | Error (fl : Supervisor.failure) ->
              Experiment.Job_failed
                {
                  Experiment.fail_reason = Supervisor.reason_name fl.Supervisor.freason;
                  fail_attempts = fl.Supervisor.fattempts;
                  fail_error = fl.Supervisor.ferror;
                }
        in
        (key, spec, result, Telemetry.now () -. t1)
      in
      List.iter
        (fun (key, spec, result, wall) ->
          (match result with
          | Experiment.Run cls ->
              Telemetry.record_job t.telemetry ~wall ~cost:cls.Experiment.cost;
              Option.iter (fun c -> Cache.add c ~key ~spec_repr:(Job.repr spec) cls) t.cache
          | Experiment.Job_failed _ -> Telemetry.record_failed t.telemetry ~wall);
          let _, idxs = Hashtbl.find missing key in
          List.iter (fun i -> results.(i) <- Some result) idxs)
        (Pool.map t.pool ?progress:(progress_fn t (List.length to_run)) exec to_run);
      Telemetry.record_retries t.telemetry (Supervisor.retries t.supervisor - retries_before);
      Option.iter Cache.flush t.cache;
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
      in_batch t @@ fun () ->
      let outs =
        Pool.map t.pool
          (fun f ->
            let t1 = Telemetry.now () in
            let r = f () in
            (r, Telemetry.now () -. t1))
          thunks
      in
      List.iter (fun (_, wall) -> Telemetry.record_task t.telemetry ~wall) outs;
      List.map fst outs

(* ---------------- summary ---------------- *)

let summary_lines t =
  Telemetry.summary_lines t.telemetry ~workers:(jobs t) ~cache:(cache_stats t)
    ~tier:(Dpmr_vm.Vm.tier_stats ())

(** Printed to stderr so report output stays byte-identical across
    worker counts and cache states. *)
let print_summary t =
  List.iter (fun l -> Printf.eprintf "%s\n" l) (summary_lines t);
  flush stderr
