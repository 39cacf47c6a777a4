(* The layer replay of the traced run: a seeded sample of a workload's
   job mix re-executed serially on one domain, calling each layer's
   public entry point inside a span of its own, so every layer's time is
   measured from outside around the call into it.  Each replayed job is
   also checked against the executable specification ([Vm.run_reference])
   and, when the campaign cached it, against the engine's verdict. *)

module Config = Dpmr_core.Config
module Experiment = Dpmr_fi.Experiment
module Inject = Dpmr_fi.Inject
module Dpmr = Dpmr_core.Dpmr
module Vm = Dpmr_vm.Vm
module Lower = Dpmr_vm.Lower
module Outcome = Dpmr_vm.Outcome
module Cache = Dpmr_engine.Cache
module Job = Dpmr_engine.Job
module Protocol = Dpmr_server.Protocol
module Workloads = Dpmr_workloads.Workloads

type t = {
  spans : Spans.t;
  contexts : (string * int64, Experiment.t) Hashtbl.t;
  mutable jobs : int;
  mutable sim_units : int64;
  mutable ref_checked : int;
  mutable ref_mismatch : int;
  mutable engine_checked : int;
  mutable engine_mismatch : int;
  mutable planned : int;
  mutable forks : int;
  mutable memo : int * int;  (** planner memo (hits, lookups) during the replay *)
  mutable keys : string list;  (** cache keys of the replayed jobs *)
  mutable verdicts : (Protocol.run_params * Experiment.classification) list;
}

let create () =
  {
    spans = Spans.create ();
    contexts = Hashtbl.create 16;
    jobs = 0;
    sim_units = 0L;
    ref_checked = 0;
    ref_mismatch = 0;
    engine_checked = 0;
    engine_mismatch = 0;
    planned = 0;
    forks = 0;
    memo = (0, 0);
    keys = [];
    verdicts = [];
  }

let span st ?args name f = Spans.with_span st.spans ?args name f

(** [f ()] in a span that also records the bytes it allocated. *)
let span_alloc st ?(args = []) name f =
  span st ~args name (fun () ->
      let a0 = Gc.allocated_bytes () in
      let r = f () in
      Spans.set_args st.spans [ ("alloc_kb", (Gc.allocated_bytes () -. a0) /. 1024.) ];
      r)

(** The experiment context of (application, seed): verify plus golden
    run, with the program build as a child span. *)
let context st app seed =
  match Hashtbl.find_opt st.contexts (app, seed) with
  | Some e -> e
  | None ->
      let e =
        span st "faultinject.context" (fun () ->
            let entry = Workloads.find app in
            Experiment.make ~seed
              (Experiment.workload app (fun () ->
                   span st "workloads.build" (fun () -> entry.Workloads.build ~scale:1 ())))
      )
      in
      Hashtbl.replace st.contexts (app, seed) e;
      e

let mode_arg (c : Config.t) = if c.Config.mode = Config.Mds then 1. else 0.

(** The run frame that asks a daemon for this job. *)
let params_of (j : Mix.job) =
  let p =
    {
      Protocol.default_run with
      Protocol.workload = j.Mix.app;
      exp_seed = j.Mix.exp_seed;
      run_seed = j.Mix.run_seed;
    }
  in
  let with_cfg (c : Config.t) p =
    {
      p with
      Protocol.mode = c.Config.mode;
      diversity = c.Config.diversity;
      policy = c.Config.policy;
      cfg_seed = c.Config.seed;
      replicas = c.Config.replicas;
      families = c.Config.families;
      vote = c.Config.vote;
    }
  in
  match j.Mix.variant with
  | Experiment.Golden -> { p with Protocol.golden = true }
  | Experiment.Fi_stdapp (k, s) ->
      { p with Protocol.plain = true; kind = Some k; site_ref = Some s }
  | Experiment.Nofi_dpmr c -> with_cfg c p
  | Experiment.Fi_dpmr (c, k, s) -> with_cfg c { p with Protocol.kind = Some k; site_ref = Some s }

let same_run (a : Outcome.run) (b : Outcome.run) =
  a.Outcome.outcome = b.Outcome.outcome
  && a.Outcome.output = b.Outcome.output
  && Int64.equal a.Outcome.cost b.Outcome.cost
  && a.Outcome.peak_heap_bytes = b.Outcome.peak_heap_bytes
  && a.Outcome.fi_first_cost = b.Outcome.fi_first_cost

(** Replay one job: inject, transform, lower and simulate, each in a
    child span of the job's span; then the checks, outside it. *)
let run_job st ~campaign_cache (j : Mix.job) =
  let e = context st j.Mix.app j.Mix.exp_seed in
  let cfg = Mix.config_of_variant j.Mix.variant in
  let n = match cfg with Some c -> float_of_int c.Config.replicas | None -> 1. in
  let prog, run =
    span st "job" (fun () ->
        let prog =
          match j.Mix.variant with
          | Experiment.Golden | Experiment.Nofi_dpmr _ -> e.Experiment.base
          | Experiment.Fi_stdapp (k, s) | Experiment.Fi_dpmr (_, k, s) ->
              span st "faultinject.inject" (fun () -> Inject.apply e.Experiment.base k s)
        in
        let prog =
          match cfg with
          | None -> prog
          | Some c ->
              (* the MDS figures are the DSA's domain (Chapter 5); the
                 report figures do not call it, so this span is a probe
                 beside the engine's path, not on it *)
              if c.Config.mode = Config.Mds then
                span st "dsa.scope" (fun () -> ignore (Dpmr_dsa.Scope.compute prog));
              span_alloc st "core.transform"
                ~args:[ ("mds", mode_arg c); ("n", n) ]
                (fun () -> Dpmr.transform c prog)
        in
        let lowered = span st "vm.lower" (fun () -> Lower.lower_prog prog) in
        let seed = j.Mix.run_seed and budget = e.Experiment.budget in
        let args = e.Experiment.wk.Experiment.args in
        let run =
          span_alloc st "vm.sim"
            ~args:[ ("n", n) ]
            (fun () ->
              match cfg with
              | None -> Dpmr.run_plain ~seed ~budget ~args ~lowered prog
              | Some c ->
                  Dpmr.run_transformed ~seed ~budget ~args ~lowered ~mode:c.Config.mode
                    ~replicas:c.Config.replicas prog)
        in
        Spans.set_args st.spans [ ("units", Int64.to_float run.Outcome.cost) ];
        (prog, run))
  in
  st.jobs <- st.jobs + 1;
  st.sim_units <- Int64.add st.sim_units run.Outcome.cost;
  let cls = Experiment.classify e run in
  (* the executable specification: same program, same seed, reference
     tree-walker *)
  let seed = j.Mix.run_seed and budget = e.Experiment.budget in
  let vm =
    match cfg with
    | None -> Dpmr.vm_plain ~seed ~budget prog
    | Some c -> Dpmr.vm_dpmr ~seed ~budget ~mode:c.Config.mode ~replicas:c.Config.replicas prog
  in
  let reference = Vm.run_reference ~args:e.Experiment.wk.Experiment.args vm in
  let spec = Job.make e ~workload:j.Mix.app ~scale:1 ~run_seed:j.Mix.run_seed j.Mix.variant in
  st.ref_checked <- st.ref_checked + 1;
  if not (same_run run reference) then begin
    st.ref_mismatch <- st.ref_mismatch + 1;
    Printf.eprintf "perfbench: replay of %s differs from Vm.run_reference\n%!" (Job.repr spec)
  end;
  let key = Job.hash spec in
  st.keys <- key :: st.keys;
  st.verdicts <- (params_of j, cls) :: st.verdicts;
  match campaign_cache with
  | None -> ()
  | Some cache -> (
      match Cache.find cache key with
      | None -> ()
      | Some c ->
          st.engine_checked <- st.engine_checked + 1;
          if c <> cls then begin
            st.engine_mismatch <- st.engine_mismatch + 1;
            Printf.eprintf "perfbench: engine verdict for %s differs from the replay\n%!" key
          end)

(** Plan one snapshot group (a cell's members) the way the engine does. *)
let plan_cell st (e : Experiment.t) variants =
  let h0, m0 = Experiment.diff_memo_stats () in
  let g =
    span st "faultinject.plan" (fun () ->
        Experiment.plan_group ~seed:e.Experiment.seed e (Array.of_list variants))
  in
  let h1, m1 = Experiment.diff_memo_stats () in
  let hits, looked = st.memo in
  st.memo <- (hits + h1 - h0, looked + (h1 - h0) + (m1 - m0));
  st.planned <- st.planned + Array.length g.Experiment.g_plans;
  Array.iter
    (function Experiment.Fork _ -> st.forks <- st.forks + 1 | _ -> ())
    g.Experiment.g_plans

(* ---------------- probes of single calls ---------------- *)

(** Mean microseconds per encode+decode of a run frame and its verdict. *)
let codec_us st =
  let pairs = st.verdicts in
  let reps = 200 in
  let t0 = Util.now () in
  for _ = 1 to reps do
    List.iter
      (fun (p, cls) ->
        let req = Protocol.encode_request { Protocol.rid = 7; body = Protocol.Run p } in
        (match Protocol.decode_request req with
        | Ok _ -> ()
        | Error m -> Util.die "run frame does not decode: %s" m);
        let resp =
          Protocol.encode_response
            {
              Protocol.rrid = 7;
              reply =
                Protocol.Verdict
                  { Protocol.cls; cached = false; wall_us = 0; vforensics = None };
            }
        in
        match Protocol.decode_response resp with
        | Ok _ -> ()
        | Error m -> Util.die "verdict frame does not decode: %s" m)
      pairs
  done;
  (Util.now () -. t0) *. 1e6 /. float_of_int (max 1 (reps * List.length pairs))

(** Mean microseconds per [Cache.find] of the replayed keys. *)
let find_us cache keys =
  let reps = 200 in
  let t0 = Util.now () in
  for _ = 1 to reps do
    List.iter (fun k -> ignore (Cache.find cache k)) keys
  done;
  (Util.now () -. t0) *. 1e6 /. float_of_int (max 1 (reps * List.length keys))

(** Mean microseconds per [Cache.add] into a fresh cache, over enough
    records that every shard reaches its periodic fsync. *)
let add_us st dir =
  let cache = Cache.load ~dir ~salt:Job.default_salt () in
  let clss = Array.of_list (List.map snd st.verdicts) in
  let n = Cache.shard_count * Cache.default_flush_every in
  let t0 = Util.now () in
  for i = 0 to n - 1 do
    let key = Printf.sprintf "%016Lx" (Int64.mul (Int64.of_int (i + 1)) 0x9e3779b97f4a7c15L) in
    span st "engine.cache_add" (fun () ->
        Cache.add cache ~key ~spec_repr:"perfbench probe" clss.(i mod Array.length clss))
  done;
  let us = (Util.now () -. t0) *. 1e6 /. float_of_int n in
  Cache.close cache;
  us
