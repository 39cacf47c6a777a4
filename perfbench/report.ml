(* The report workloads: grid-cold, grid-warm and surface-cold.  Each
   campaign runs in a forked child, so its set-up time, CPU time and peak
   resident set belong to one fresh process, as for a user running
   [dpmr report]. *)

module Engine = Dpmr_engine.Engine
module Cache = Dpmr_engine.Cache
module Job = Dpmr_engine.Job
module Figures = Dpmr_harness.Figures
module Experiment = Dpmr_fi.Experiment

(** Engine telemetry and cache counters at one instant. *)
type tele = {
  jobs_run : int;
  jobs_cached : int;
  jobs_failed : int;
  retries : int;
  tasks : int;
  cost : int64;
  busy : float;
  wall : float;
  batches : int;
  hits : int;
  misses : int;
  added : int;
  forked : int;
}

let snap engine =
  let t = Engine.telemetry engine in
  let c = Engine.cache_stats engine in
  let cs f = match c with Some c -> f c | None -> 0 in
  Dpmr_engine.Telemetry.
    {
      jobs_run = t.jobs_run;
      jobs_cached = t.jobs_cached;
      jobs_failed = t.jobs_failed;
      retries = t.retries;
      tasks = t.tasks_run;
      cost = t.cost_units;
      busy = t.busy_seconds;
      wall = t.wall_seconds;
      batches = t.batches;
      hits = cs (fun c -> c.Cache.hits);
      misses = cs (fun c -> c.Cache.misses);
      added = cs (fun c -> c.Cache.added);
      forked = cs (fun c -> c.Cache.forked);
    }

let zero =
  {
    jobs_run = 0; jobs_cached = 0; jobs_failed = 0; retries = 0; tasks = 0; cost = 0L;
    busy = 0.; wall = 0.; batches = 0; hits = 0; misses = 0; added = 0; forked = 0;
  }

let delta b a =
  {
    jobs_run = b.jobs_run - a.jobs_run;
    jobs_cached = b.jobs_cached - a.jobs_cached;
    jobs_failed = b.jobs_failed - a.jobs_failed;
    retries = b.retries - a.retries;
    tasks = b.tasks - a.tasks;
    cost = Int64.sub b.cost a.cost;
    busy = b.busy -. a.busy;
    wall = b.wall -. a.wall;
    batches = b.batches - a.batches;
    hits = b.hits - a.hits;
    misses = b.misses - a.misses;
    added = b.added - a.added;
    forked = b.forked - a.forked;
  }

type figure = { fid : string; ft0 : float; ft1 : float; fd : tele }

type campaign = {
  wall_s : float;
  cpu_s : float;
  rss_mb : float;
  total : tele;
  tier : int * int;  (** (promoted, deopts) during the campaign *)
  memo : int * int;  (** planner diff memo (hits, lookups) during the campaign *)
  bad : string list;  (** figures whose bytes differ from the reference *)
  holes : int;  (** '!' job holes in the report *)
  digests : (string * string) list;  (** figure id -> hex MD5 of its bytes *)
  figures : figure list;
  trace_s : float;  (** time spent recording the per-figure spans *)
}

type kind = Grid | Surface

let figure_ids = function Grid -> Figures.ids | Surface -> [ "nversion-surface" ]

(** One campaign over [dir] (the cache directory), run in this process;
    the caller forks. *)
let campaign kind ~dir ~(reference : Reference.t) () =
  Util.stdout_to (dir ^ ".out");
  let engine = Engine.create ~jobs:(Util.nproc ()) ~cache_dir:dir ~progress:false () in
  let ctx = Figures.create ~engine () in
  let p0, q0 = Dpmr_vm.Vm.tier_stats () in
  let h0, m0 = Experiment.diff_memo_stats () in
  let s0 = snap engine in
  let c0 = Util.cpu_now () in
  let w0 = Util.now () in
  let trace_s = ref 0. in
  let timed_snap () =
    let t = Util.now () in
    let s = snap engine in
    trace_s := !trace_s +. (Util.now () -. t);
    s
  in
  let figures =
    List.map
      (fun id ->
        let a = timed_snap () in
        let ft0 = Util.now () in
        if id = "nversion-surface" then Figures.nversion_surface ctx else Figures.run ctx id;
        let ft1 = Util.now () in
        let pos = Util.stdout_pos () in
        ({ fid = id; ft0; ft1; fd = delta (timed_snap ()) a }, pos))
      (figure_ids kind)
  in
  let wall_s = Util.now () -. w0 in
  let cpu_s = Util.cpu_now () -. c0 in
  let rss_mb = Util.peak_rss_mb () in
  let total = delta (snap engine) s0 in
  let p1, q1 = Dpmr_vm.Vm.tier_stats () in
  let h1, m1 = Experiment.diff_memo_stats () in
  Engine.close engine;
  let out = Util.read_file (dir ^ ".out") in
  let _, bad, digests =
    List.fold_left
      (fun (start, bad, digests) (f, stop) ->
        let bytes = String.sub out start (stop - start) in
        ( stop,
          (if Reference.figure_ok reference f.fid bytes then bad else f.fid :: bad),
          (f.fid, Digest.to_hex (Digest.string bytes)) :: digests ))
      (0, [], []) figures
  in
  {
    wall_s;
    cpu_s;
    rss_mb;
    total;
    tier = (p1 - p0, q1 - q0);
    memo = (h1 - h0, h1 - h0 + m1 - m0);
    bad = List.rev bad;
    holes = String.fold_left (fun n c -> if c = '!' then n + 1 else n) 0 out;
    digests = List.rev digests;
    figures = List.map fst figures;
    trace_s = !trace_s;
  }

(** Set-up as a user pays it: a fresh process of this executable starts,
    initialises every module, creates the engine over [dir] (loading its
    cache) and the figure context, and reports ready.  Returns the
    seconds from spawn to the ready line. *)
let setup_probe dir =
  let t0 = Util.now () in
  let ic =
    Unix.open_process_args_in Sys.executable_name [| Sys.executable_name; "--setup-probe"; dir |]
  in
  let line = In_channel.input_line ic in
  let t = Util.now () -. t0 in
  match (line, Unix.close_process_in ic) with
  | Some "ready", Unix.WEXITED 0 -> t
  | _ -> Util.die "set-up probe over %s failed" dir

(** The [--setup-probe] side. *)
let ready dir =
  let engine = Engine.create ~jobs:(Util.nproc ()) ~cache_dir:dir ~progress:false () in
  ignore (Figures.create ~engine ());
  print_endline "ready";
  Engine.close engine

(* a cold grid takes 5-10 s on the recording host *)
let timeout = 60.

let run_campaign kind ~dir ~reference =
  match Util.in_child ~timeout (campaign kind ~dir ~reference) with
  | Ok c -> c
  | Error msg -> Util.die "campaign in %s failed: %s" dir msg

(** The counts a campaign must repeat exactly on every run: they are
    simulated statistics, which no host-time change may move. *)
let counts_of c =
  [
    ("jobs", c.total.jobs_run + c.total.jobs_cached + c.total.jobs_failed);
    ("jobs_run", c.total.jobs_run);
    ("tasks", c.total.tasks);
    ("cost_units", Int64.to_int c.total.cost);
    ("cache_records", c.total.added);
  ]

(** Operations a campaign attempted and the ones that failed: job holes,
    figures whose bytes differ, counts that did not repeat. *)
let check ~(reference : Reference.t) ~name c =
  let attempted = c.total.jobs_run + c.total.jobs_cached + c.total.jobs_failed + c.total.tasks in
  let count_errors =
    List.filter
      (fun (k, v) ->
        match Reference.count reference name k with
        | Some want when want <> v ->
            Printf.eprintf "perfbench: %s %s = %d, recorded %d\n%!" name k v want;
            true
        | Some _ -> false
        | None ->
            Printf.eprintf "perfbench: no recorded %s %s\n%!" name k;
            true)
      (counts_of c)
  in
  List.iter (Printf.eprintf "perfbench: %s: figure %s differs from the reference\n%!" name) c.bad;
  if c.holes > 0 then Printf.eprintf "perfbench: %s: %d job hole(s) in the report\n%!" name c.holes;
  (attempted, c.total.jobs_failed + List.length c.bad + c.holes + List.length count_errors)
