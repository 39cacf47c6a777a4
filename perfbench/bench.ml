(* perfbench — the repository's benchmark.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1 --serve-exe PATH

   Workloads: grid-cold, grid-warm, surface-cold, serve-mixed (see
   perfbench/METHOD.md for what each stresses and why).  With --trace 0
   the run measures the end-to-end metrics; with --trace 1 it measures
   the per-layer metrics instead, writes a Chrome trace under
   .bench_out/ and prints a per-layer table.  The last line of stdout is
   one JSON object: {"correct", "attempted", "failed", "metrics"}.

   --record FILE reruns the report workloads once and writes the
   reference digests and counts they must reproduce. *)

module Cache = Dpmr_engine.Cache
module Job = Dpmr_engine.Job
module Experiment = Dpmr_fi.Experiment

type outcome = {
  attempted : int;
  failed : int;
  metrics : (string * float * string) list;  (** name, value, unit *)
}

let work_root = ".bench_work"
let out_root = ".bench_out"

(* ---------------- output ---------------- *)

let json_num v =
  if Float.is_finite v then Printf.sprintf "%.17g" v
  else Util.die "metric value %f is not a finite number" v

let print_result { attempted; failed; metrics } =
  let m =
    List.map
      (fun (name, v, unit) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_num v) unit)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (failed = 0) attempted failed (String.concat ", " m)

let print_metrics metrics =
  List.iter (fun (name, v, unit) -> Printf.printf "  %-36s %14.4f %s\n" name v unit) metrics

(* ---------------- report workloads: timed run ---------------- *)

let kind_of = function "surface-cold" -> Report.Surface | _ -> Report.Grid

(** Fill a cache directory with one untimed cold grid. *)
let fill ~work ~reference =
  let dir = Util.fresh_dir (Filename.concat work "warm") in
  let c = Report.run_campaign Report.Grid ~dir ~reference in
  (dir, Report.check ~reference ~name:"grid-cold" c)

(* set-up is short, so it is taken several times and its median kept *)
let setups = 15

let report_timed ~name ~seconds ~work ~reference =
  let kind = kind_of name in
  let warm, (fill_attempted, fill_failed) =
    if name = "grid-warm" then
      let dir, af = fill ~work ~reference in
      (Some dir, af)
    else (None, (0, 0))
  in
  let setup_s =
    Util.median
      (List.init setups (fun i ->
           Report.setup_probe
             (match warm with
             | Some d -> d
             | None -> Util.fresh_dir (Filename.concat work (Printf.sprintf "setup%d" i)))))
  in
  let start = Util.now () in
  let rec loop i acc =
    if i > 0 && Util.now () -. start >= seconds then List.rev acc
    else
      let dir =
        match warm with
        | Some d -> d
        | None -> Util.fresh_dir (Filename.concat work (Printf.sprintf "c%d" i))
      in
      let c = Report.run_campaign kind ~dir ~reference in
      if warm = None then Util.rm_rf dir;
      loop (i + 1) (c :: acc)
  in
  let cs = loop 0 [] in
  let attempted, failed =
    List.fold_left
      (fun (a, f) c ->
        let a', f' = Report.check ~reference ~name c in
        (a + a', f + f'))
      (0, fill_failed) cs
  in
  let med f = Util.median (List.map f cs) in
  let jobs_per_s = float_of_int attempted /. Util.sum (List.map (fun c -> c.Report.wall_s) cs) in
  Printf.printf "%s: %d campaign(s); walls %s s\n" name (List.length cs)
    (String.concat " " (List.map (fun c -> Printf.sprintf "%.3f" c.Report.wall_s) cs));
  {
    attempted = attempted + fill_attempted;
    failed;
    metrics =
      [
        ("setup_s", setup_s, "s");
        ("campaign_wall_s", med (fun c -> c.Report.wall_s), "s");
        ("cpu_s", med (fun c -> c.Report.cpu_s), "s");
        ("peak_rss_mb", med (fun c -> c.Report.rss_mb), "MB");
        ("jobs_per_s", jobs_per_s, "1/s");
      ];
  }

(* ---------------- per-layer metrics (traced run) ---------------- *)

let spans_where ?(where = fun _ -> true) (st : Replay.t) name =
  List.filter (fun s -> s.Spans.name = name && where s.Spans.args) st.Replay.spans.Spans.spans

(** Mean milliseconds per span of [name] (whose args satisfy [where]). *)
let mean_ms ?where st name =
  let ss = spans_where ?where st name in
  Util.ratio (Util.sum (List.map Spans.dur ss) *. 1000.) (float_of_int (List.length ss))

let mean_arg st name key =
  let ss = spans_where st name in
  Util.ratio
    (Util.sum (List.map (fun s -> Option.value (List.assoc_opt key s.Spans.args) ~default:0.) ss))
    (float_of_int (List.length ss))

let arg_is key v args = List.assoc_opt key args = Some v

(** Cache-layer probes against the directory the workload's own campaign
    (or daemon) filled. *)
type cache_probe = { load_ms : float; bytes : float; cache : Cache.t }

let probe_cache dir =
  let t0 = Util.now () in
  let cache = Cache.load ~dir ~salt:Job.default_salt () in
  let load_ms = (Util.now () -. t0) *. 1000. in
  let bytes = float_of_int (Cache.disk_stats ~dir ~salt:Job.default_salt ()).Cache.bytes in
  { load_ms; bytes; cache }

(** Metrics every workload reports from its replay, probes and engine. *)
let layer_metrics (st : Replay.t) ~(tele : Report.tele) ~tier ~probe ~find_us ~add_us
    ~codec_us ~trace_share =
  let workers = float_of_int (Util.nproc ()) in
  let sim_s = Spans.total st.Replay.spans "vm.sim" in
  let memo_hits, memo_looked = st.Replay.memo in
  [
    ("faultinject.context_ms", mean_ms st "faultinject.context", "ms");
    ("faultinject.contexts", float_of_int (Spans.count st.Replay.spans "faultinject.context"), "count");
    ("faultinject.inject_ms", mean_ms st "faultinject.inject", "ms");
    ("faultinject.plan_ms", mean_ms st "faultinject.plan", "ms");
    ("faultinject.fork_share", Util.ratio (float_of_int st.Replay.forks) (float_of_int st.Replay.planned), "share");
    ("faultinject.plan_memo_hit_rate", Util.ratio (float_of_int memo_hits) (float_of_int memo_looked), "share");
    ("workloads.build_ms", mean_ms st "workloads.build", "ms");
    ("core.transform_ms", mean_ms st "core.transform", "ms");
    ("core.transform_alloc_kb", mean_arg st "core.transform" "alloc_kb", "KiB");
    ("vm.lower_ms", mean_ms st "vm.lower", "ms");
    ("vm.sim_ms", mean_ms st "vm.sim", "ms");
    ("vm.sim_units", Int64.to_float st.Replay.sim_units, "units");
    ("vm.units_per_s", Util.ratio (Int64.to_float st.Replay.sim_units) sim_s, "units/s");
    ("vm.sim_alloc_kb", mean_arg st "vm.sim" "alloc_kb", "KiB");
    ("vm.tier_promoted", float_of_int (fst tier), "count");
    ("vm.tier_deopts", float_of_int (snd tier), "count");
    ("engine.busy_s", tele.Report.busy, "s");
    ("engine.wall_s", tele.Report.wall, "s");
    ("engine.batches", float_of_int tele.Report.batches, "count");
    ("engine.idle_share", 1. -. Util.ratio tele.Report.busy (tele.Report.wall *. workers), "share");
    ( "engine.batch_tail_s",
      Util.ratio (tele.Report.wall -. (tele.Report.busy /. workers)) (float_of_int tele.Report.batches),
      "s" );
    ("engine.jobs_run", float_of_int tele.Report.jobs_run, "count");
    ("engine.jobs_cached", float_of_int tele.Report.jobs_cached, "count");
    ("engine.jobs_failed", float_of_int tele.Report.jobs_failed, "count");
    ("engine.retries", float_of_int tele.Report.retries, "count");
    ("engine.cache_load_ms", probe.load_ms, "ms");
    ("engine.cache_bytes", probe.bytes, "bytes");
    ("engine.cache_find_us", find_us, "us");
    ( "engine.cache_hit_rate",
      Util.ratio (float_of_int tele.Report.hits) (float_of_int (tele.Report.hits + tele.Report.misses)),
      "share" );
    ("engine.cache_add_us", add_us, "us");
    ("server.codec_us", codec_us, "us");
    ("trace.overhead_share", trace_share, "share");
  ]

(** Workload-specific splits, printed in the table only: each applies to
    some workloads, not all. *)
let split_metrics (st : Replay.t) =
  let by name key v = mean_ms ~where:(arg_is key v) st name in
  let has name key v = spans_where ~where:(arg_is key v) st name <> [] in
  List.filter_map
    (fun (m, name, key, v) -> if has name key v then Some (m, by name key v, "ms") else None)
    [
      ("core.transform_ms.sds", "core.transform", "mds", 0.);
      ("core.transform_ms.mds", "core.transform", "mds", 1.);
      ("core.transform_ms.n1", "core.transform", "n", 1.);
      ("core.transform_ms.n2", "core.transform", "n", 2.);
      ("core.transform_ms.n3", "core.transform", "n", 3.);
      ("vm.sim_ms.n1", "vm.sim", "n", 1.);
      ("vm.sim_ms.n2", "vm.sim", "n", 2.);
      ("vm.sim_ms.n3", "vm.sim", "n", 3.);
    ]
  @
  if Spans.count st.Replay.spans "dsa.scope" > 0 then
    [ ("dsa.scope_ms", mean_ms st "dsa.scope", "ms") ]
  else []

(** The per-layer table: calls, total and self time of each span name,
    and, for the layers every job passes through, the share of the
    campaign's engine busy time they account for (per-job mean from the
    serial replay x jobs the engine ran / engine busy time). *)
let print_table (spans : Spans.t) ~jobs ~(tele : Report.tele) =
  let per_job = [ "job"; "faultinject.inject"; "core.transform"; "vm.lower"; "vm.sim" ] in
  Printf.printf "\n%-22s %7s %12s %12s %14s\n" "layer" "calls" "total ms" "self ms" "% engine busy";
  List.iter
    (fun (name, n, tot, self) ->
      let share =
        if List.mem name per_job && jobs > 0 && tele.Report.busy > 0. then
          Printf.sprintf "%13.1f%%"
            (100. *. tot /. float_of_int jobs *. float_of_int tele.Report.jobs_run /. tele.Report.busy)
        else Printf.sprintf "%14s" "-"
      in
      Printf.printf "%-22s %7d %12.2f %12.2f %s\n" name n (tot *. 1000.) (self *. 1000.) share)
    (Spans.layer_rows spans);
  if jobs > 0 && tele.Report.busy > 0. then
    Printf.printf
      "vm.sim accounts for %.1f%% of engine busy time (%.2f s of %.2f s busy, %d jobs run; \
       serial replay estimate)\n"
      (100. *. Spans.total spans "vm.sim" /. float_of_int jobs *. float_of_int tele.Report.jobs_run
     /. tele.Report.busy)
      (Spans.total spans "vm.sim" /. float_of_int jobs *. float_of_int tele.Report.jobs_run)
      tele.Report.busy tele.Report.jobs_run

let replay_size = 48
let plan_cells = 3

let trace_file name seed =
  Util.mkdir_p out_root;
  Filename.concat out_root (Printf.sprintf "trace-%s-seed%d.json" name seed)

(** The replay, plans and add probe every workload shares; returns the
    mean add time and the failures the replay found. *)
let replay_and_probe st ~jobs ~plans ~campaign_cache ~work =
  List.iter (Replay.run_job st ~campaign_cache) jobs;
  List.iter (fun (e, variants) -> Replay.plan_cell st e variants) plans;
  let add_us = Replay.add_us st (Util.fresh_dir (Filename.concat work "addprobe")) in
  (add_us, st.Replay.ref_mismatch + st.Replay.engine_mismatch)

let report_traced ~name ~seed ~work ~reference =
  let kind = kind_of name in
  let dir, (fill_attempted, fill_failed) =
    if name = "grid-warm" then fill ~work ~reference
    else (Util.fresh_dir (Filename.concat work "c0"), (0, 0))
  in
  let c = Report.run_campaign kind ~dir ~reference in
  let attempted, failed = Report.check ~reference ~name c in
  let st = Replay.create () in
  (* one span per Figures.run call, with the engine batch wall inside it *)
  List.iter
    (fun (f : Report.figure) ->
      let d = f.Report.fd in
      let id =
        Spans.record st.Replay.spans ~cat:"figure" ~tid:0 "harness.figure" ~t0:f.Report.ft0
          ~t1:f.Report.ft1
          ~args:
            [
              ("jobs_run", float_of_int d.Report.jobs_run);
              ("jobs_cached", float_of_int d.Report.jobs_cached);
              ("jobs_failed", float_of_int d.Report.jobs_failed);
              ("tasks", float_of_int d.Report.tasks);
              ("busy_s", d.Report.busy);
              ("batches", float_of_int d.Report.batches);
              ("cache_hits", float_of_int d.Report.hits);
              ("cache_misses", float_of_int d.Report.misses);
              ("cache_added", float_of_int d.Report.added);
            ]
      in
      ignore
        (Spans.record st.Replay.spans ~parent:id ~cat:"figure" ~tid:0 "engine.batch_wall"
           ~t0:f.Report.ft0 ~t1:(f.Report.ft0 +. d.Report.wall)))
    c.Report.figures;
  let probe = probe_cache dir in
  let rng = Random.State.make [| seed |] in
  let ctx app s = Replay.context st app s in
  let cells = match kind with Report.Grid -> Mix.grid_cells | Report.Surface -> Mix.surface_cells in
  let mix_jobs, jobs = Mix.sample_jobs ~ctx rng replay_size cells in
  let plans =
    List.map
      (fun (c : Mix.cell) ->
        let e = ctx c.Mix.app Mix.report_seed in
        (e, Mix.cell_variants e c))
      (Mix.sample rng plan_cells (List.filter (fun (c : Mix.cell) -> c.Mix.kind <> None) cells))
  in
  let add_us, replay_failed =
    replay_and_probe st ~jobs ~plans ~campaign_cache:(Some probe.cache) ~work
  in
  let find_us = Replay.find_us probe.cache st.Replay.keys in
  let codec_us = Replay.codec_us st in
  let t0 = Util.now () in
  let trace = trace_file name seed in
  let events = Spans.write_validated st.Replay.spans trace in
  let trace_share = (Util.now () -. t0 +. c.Report.trace_s) /. c.Report.wall_s in
  let figure_s =
    Util.sum (List.map (fun f -> f.Report.ft1 -. f.Report.ft0 -. f.Report.fd.Report.wall) c.Report.figures)
  in
  let tasks_s =
    Util.sum
      (List.map
         (fun f -> if f.Report.fd.Report.tasks > 0 then f.Report.fd.Report.wall else 0.)
         c.Report.figures)
  in
  Printf.printf "%s traced: campaign %.3f s; replayed %d of %d jobs (seed %d), %d checked \
                 against Vm.run_reference, %d against the engine's cached verdicts; \
                 trace %s (%d events)\n"
    name c.Report.wall_s (List.length jobs) mix_jobs seed st.Replay.ref_checked
    st.Replay.engine_checked trace events;
  print_table st.Replay.spans ~jobs:st.Replay.jobs ~tele:c.Report.total;
  let metrics =
    layer_metrics st ~tele:c.Report.total ~tier:c.Report.tier ~probe ~find_us ~add_us ~codec_us
      ~trace_share
  in
  Printf.printf "\nper-layer metrics:\n";
  print_metrics metrics;
  Printf.printf "workload-specific:\n";
  print_metrics
    (split_metrics st
    @ [
        ("harness.figure_ms", figure_s *. 1000., "ms");
        ("harness.tasks_s", tasks_s, "s");
        ( "campaign.fork_share",
          Util.ratio (float_of_int c.Report.total.Report.forked)
            (float_of_int c.Report.total.Report.jobs_run),
          "share" );
        ( "campaign.plan_memo_hit_rate",
          Util.ratio (float_of_int (fst c.Report.memo)) (float_of_int (snd c.Report.memo)),
          "share" );
      ]);
  Cache.close probe.cache;
  {
    attempted = attempted + fill_attempted + st.Replay.jobs;
    failed = failed + fill_failed + replay_failed;
    metrics;
  }

(* ---------------- serve-mixed ---------------- *)

let block = 1000
let serve_setups_n = 3
let verify_sample = 12

let percentile_of xs p = Util.percentile (Util.sorted_floats xs) p

(** Wall seconds of each successive block of [block] completed requests. *)
let block_walls ~start (reqs : Serve.req list) =
  let ends = Util.sorted_floats (List.map (fun r -> r.Serve.t1) reqs) in
  let n = Array.length ends / block in
  if n = 0 then
    [ (ends.(Array.length ends - 1) -. start) *. float_of_int block
      /. float_of_int (Array.length ends) ]
  else
    List.init n (fun k ->
        ends.(((k + 1) * block) - 1) -. if k = 0 then start else ends.((k * block) - 1))

let answered (r : Serve.req) = r.Serve.reply = Serve.Hit || r.Serve.reply = Serve.Miss

(** After the timed phase: the daemon's counters, a seeded sample of
    served verdicts recomputed in process, a SIGTERM drain and a check
    of the cache directory the daemon leaves.  Returns the stats and the
    failures found. *)
let serve_after (d : Serve.daemon) (reqs : Serve.req list) ~seed ~ctx =
  let failed = ref 0 in
  let fail fmt = Printf.ksprintf (fun m -> prerr_endline ("perfbench: " ^ m); incr failed) fmt in
  let stats = match Serve.stats d with Ok s -> Some s | Error m -> fail "%s" m; None in
  let rng = Random.State.make [| seed; 17 |] in
  let pick reply = Mix.sample rng verify_sample (List.filter (fun r -> r.Serve.reply = reply) reqs) in
  let sample = pick Serve.Hit @ pick Serve.Miss in
  let wrong = Serve.verify ~ctx sample in
  if wrong > 0 then fail "%d of %d served verdicts differ from in-process ones" wrong (List.length sample);
  (match Serve.stop d with Ok () -> () | Error m -> fail "%s" m);
  let disk = Cache.disk_stats ~dir:d.Serve.dir ~salt:Job.default_salt () in
  let missed = Hashtbl.create 1024 in
  List.iter
    (fun r -> if r.Serve.reply = Serve.Miss then Hashtbl.replace missed r.Serve.p ())
    reqs;
  if disk.Cache.damaged > 0 || disk.Cache.torn_tail || disk.Cache.current < Hashtbl.length missed then
    fail "daemon cache after drain: %d current, %d damaged, torn tail %b (%d distinct misses)"
      disk.Cache.current disk.Cache.damaged disk.Cache.torn_tail (Hashtbl.length missed);
  (stats, List.length sample, !failed)

let latency_lines (reqs : Serve.req list) =
  let lat = List.map (fun r -> (r.Serve.t1 -. r.Serve.t0) *. 1e6) (List.filter answered reqs) in
  let n = List.length lat in
  Printf.printf "serve-mixed: %d requests answered; latency p50 %.0f us, p99 %.0f us (%d samples, %d beyond p99)\n"
    n (percentile_of lat 50.) (percentile_of lat 99.) n (n / 100)

let serve_setups ~exe ~work =
  let rec go i acc =
    match Serve.setup ~exe ~work i with
    | Error m -> Util.die "serve-mixed set-up %d: %s" i m
    | Ok (d, s) ->
        if i + 1 = serve_setups_n then (d, List.rev (s :: acc))
        else begin
          (match Serve.stop d with Ok () -> () | Error m -> Util.die "serve-mixed set-up %d: %s" i m);
          go (i + 1) (s :: acc)
        end
  in
  go 0 []

let serve_timed ~exe ~seed ~seconds ~work =
  let d, setup_times = serve_setups ~exe ~work in
  let cpu0 = Util.proc_cpu_s d.Serve.pid in
  let start = Util.now () in
  let reqs = Serve.drive d ~streams:(Serve.streams seed) ~until:(start +. seconds) in
  let stop = List.fold_left (fun a r -> Float.max a r.Serve.t1) start reqs in
  let cpu = Util.proc_cpu_s d.Serve.pid -. cpu0 in
  let rss = Util.peak_rss_mb ~pid:(string_of_int d.Serve.pid) () in
  let ok = List.filter answered reqs in
  let n = List.length ok in
  if n = 0 then Util.die "serve-mixed: no request was answered";
  latency_lines reqs;
  let st = Replay.create () in
  let _, checked, post_failed = serve_after d reqs ~seed ~ctx:(Replay.context st) in
  {
    attempted = List.length reqs + checked;
    failed = List.length reqs - n + post_failed;
    metrics =
      [
        ("setup_s", Util.median setup_times, "s");
        ("campaign_wall_s", Util.median (block_walls ~start ok), "s");
        ("cpu_s", cpu *. float_of_int block /. float_of_int n, "s");
        ("peak_rss_mb", rss, "MB");
        ("jobs_per_s", float_of_int n /. (stop -. start), "1/s");
      ];
  }

let serve_traced ~exe ~seed ~seconds ~work =
  let d, _ = match Serve.setup ~exe ~work 0 with Ok x -> x | Error m -> Util.die "serve-mixed set-up: %s" m in
  let start = Util.now () in
  let reqs = Serve.drive d ~streams:(Serve.streams seed) ~until:(start +. seconds) in
  let stop = List.fold_left (fun a r -> Float.max a r.Serve.t1) start reqs in
  latency_lines reqs;
  let st = Replay.create () in
  let ctx = Replay.context st in
  let stats, checked, post_failed = serve_after d reqs ~seed ~ctx in
  let tele, tier =
    match stats with
    | Some s -> (s.Serve.tele, s.Serve.tier)
    | None -> (Report.zero, (0, 0))
  in
  (* one span per served request, split into the daemon's own handling
     time (the verdict's wall_us) and everything outside it *)
  let t0 = Util.now () in
  List.iter
    (fun (r : Serve.req) ->
      let id =
        Spans.record st.Replay.spans ~cat:"request" ~tid:(r.Serve.conn + 2) "server.request"
          ~t0:r.Serve.t0 ~t1:r.Serve.t1
          ~args:[ ("cached", if r.Serve.reply = Serve.Hit then 1. else 0.) ]
      in
      let exec = float_of_int r.Serve.wall_us /. 1e6 in
      let mid = (r.Serve.t0 +. r.Serve.t1 -. exec) /. 2. in
      ignore
        (Spans.record st.Replay.spans ~parent:id ~cat:"request" ~tid:(r.Serve.conn + 2)
           "server.exec" ~t0:mid ~t1:(mid +. exec)))
    reqs;
  let span_s = Util.now () -. t0 in
  let probe = probe_cache d.Serve.dir in
  (* the layer replay of this workload's own request stream *)
  let rng = Random.State.make [| seed |] in
  let drawn =
    let s = Serve.stream seed 0 in
    List.sort_uniq compare (List.init (4 * replay_size) (fun _ -> Serve.draw s))
  in
  let jobs = List.map (fun p -> snd (Serve.job_of_params ~ctx p)) (Mix.sample rng replay_size drawn) in
  let plans =
    List.filter_map
      (fun (j : Mix.job) ->
        match j.Mix.variant with
        | Experiment.Fi_dpmr _ | Experiment.Fi_stdapp _ ->
            Some (ctx j.Mix.app j.Mix.exp_seed, [ j.Mix.variant ])
        | _ -> None)
      (Mix.sample rng (2 * plan_cells) jobs)
  in
  let add_us, replay_failed =
    replay_and_probe st ~jobs ~plans ~campaign_cache:(Some probe.cache) ~work
  in
  let find_us = Replay.find_us probe.cache st.Replay.keys in
  let codec_us = Replay.codec_us st in
  let t1 = Util.now () in
  let trace = trace_file "serve-mixed" seed in
  let events = Spans.write_validated st.Replay.spans trace in
  let trace_share = (Util.now () -. t1 +. span_s) /. (stop -. start) in
  Printf.printf "serve-mixed traced: replayed %d jobs of the request stream (seed %d), %d \
                 checked against Vm.run_reference, %d against the daemon's cached verdicts; \
                 trace %s (%d events)\n"
    st.Replay.jobs seed st.Replay.ref_checked st.Replay.engine_checked trace events;
  print_table st.Replay.spans ~jobs:st.Replay.jobs ~tele;
  let metrics =
    layer_metrics st ~tele ~tier ~probe ~find_us ~add_us ~codec_us ~trace_share
  in
  Printf.printf "\nper-layer metrics:\n";
  print_metrics metrics;
  let ok = List.filter answered reqs in
  let hits = List.filter (fun r -> r.Serve.reply = Serve.Hit) ok in
  let misses = List.filter (fun r -> r.Serve.reply = Serve.Miss) ok in
  let rtt r = r.Serve.t1 -. r.Serve.t0 in
  let outside = List.map (fun r -> (rtt r *. 1e6) -. float_of_int r.Serve.wall_us) ok in
  let pct rs f p = percentile_of (List.map f rs) p in
  let stat f = match stats with Some s -> float_of_int (f s) | None -> nan in
  Printf.printf "workload-specific (%d hits, %d misses):\n" (List.length hits) (List.length misses);
  print_metrics
    (split_metrics st
    @ [
        ("server.rtt_hit_us.p50", pct hits (fun r -> rtt r *. 1e6) 50., "us");
        ("server.rtt_hit_us.p99", pct hits (fun r -> rtt r *. 1e6) 99., "us");
        ("server.rtt_miss_ms.p50", pct misses (fun r -> rtt r *. 1e3) 50., "ms");
        ("server.rtt_miss_ms.p99", pct misses (fun r -> rtt r *. 1e3) 99., "ms");
        ("server.exec_us", pct ok (fun r -> float_of_int r.Serve.wall_us) 50., "us");
        ("server.outside_exec_us.p50", percentile_of outside 50., "us");
        ("server.outside_exec_us.p99", percentile_of outside 99., "us");
        ( "server.miss_share",
          Util.ratio (float_of_int (List.length misses)) (float_of_int (List.length ok)),
          "share" );
        ("server.errors", stat (fun s -> s.Serve.errors), "count");
        ("server.quota_rejects", stat (fun s -> s.Serve.quota_rejects), "count");
      ]);
  Cache.close probe.cache;
  let refused = List.length (List.filter (fun r -> not (answered r)) reqs) in
  {
    attempted = List.length reqs + checked + st.Replay.jobs;
    failed = refused + post_failed + replay_failed;
    metrics;
  }

(* ---------------- recording the reference ---------------- *)

let record ~work file =
  let reference = Reference.load () in
  let grid = Report.run_campaign Report.Grid ~dir:(Util.fresh_dir (Filename.concat work "g")) ~reference in
  let warm = Report.run_campaign Report.Grid ~dir:(Filename.concat work "g") ~reference in
  let surface =
    Report.run_campaign Report.Surface ~dir:(Util.fresh_dir (Filename.concat work "s")) ~reference
  in
  let b = Buffer.create 4096 in
  Buffer.add_string b
    "# Reference outputs of the report workloads at seed 42 (perfbench/bench.exe --record).\n\
     # digest FIGURE MD5: the figure's stdout bytes; count WORKLOAD KEY VALUE: a\n\
     # simulated statistic the workload must repeat exactly.\n";
  List.iter
    (fun (id, md5) ->
      if not (List.mem_assoc id reference.Reference.golden) then
        Buffer.add_string b (Printf.sprintf "digest %s %s\n" id md5))
    (grid.Report.digests @ surface.Report.digests);
  List.iter
    (fun (name, c) ->
      List.iter
        (fun (k, v) -> Buffer.add_string b (Printf.sprintf "count %s %s %d\n" name k v))
        (Report.counts_of c))
    [ ("grid-cold", grid); ("grid-warm", warm); ("surface-cold", surface) ];
  Util.write_file file (Buffer.contents b);
  Printf.printf "wrote %s (%s differs from its golden file: %b)\n" file "fig-3.6"
    (List.mem "fig-3.6" grid.Report.bad)

(* ---------------- main ---------------- *)

let workloads = [ "grid-cold"; "grid-warm"; "surface-cold"; "serve-mixed" ]

let () =
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = 4 * 1024 * 1024 };
  Dpmr_nversion.Families.ensure ();
  let workload = ref "" and seed = ref 1 and seconds = ref 20. and trace = ref 0 in
  let serve_exe = ref "" and record_to = ref "" and probe = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME " ^ String.concat "|" workloads);
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S how long the timed part runs");
      ("--trace", Arg.Set_int trace, "0|1 timed run or traced per-layer run");
      ("--serve-exe", Arg.Set_string serve_exe, "PATH the dpmr_serve executable");
      ("--record", Arg.Set_string record_to, "FILE record the reference outputs");
      ("--setup-probe", Arg.Set_string probe, "DIR set up over DIR, print ready and exit");
    ]
    (fun a -> Util.die "unexpected argument %S" a)
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1 --serve-exe PATH";
  if !probe <> "" then begin
    Report.ready !probe;
    exit 0
  end;
  if !record_to = "" && not (List.mem !workload workloads) then
    Util.die "unknown workload %S (have %s)" !workload (String.concat ", " workloads);
  if !trace <> 0 && !trace <> 1 then Util.die "--trace takes 0 or 1";
  let work =
    Util.fresh_dir (Filename.concat work_root (Printf.sprintf "%s-%d" !workload (Unix.getpid ())))
  in
  (* forked campaign children share the directory: only this process
     removes it, also when the run ends early *)
  let owner = Unix.getpid () in
  at_exit (fun () -> if Unix.getpid () = owner then Util.rm_rf work);
  if !record_to <> "" then begin
    record ~work !record_to;
    exit 0
  end;
  let seconds = !seconds and seed = !seed in
  let result =
    match (!workload, !trace) with
    | "serve-mixed", t ->
        if not (Sys.file_exists !serve_exe) then Util.die "no dpmr_serve at %S" !serve_exe;
        if t = 0 then serve_timed ~exe:!serve_exe ~seed ~seconds ~work
        else serve_traced ~exe:!serve_exe ~seed ~seconds ~work
    | name, 0 -> report_timed ~name ~seconds ~work ~reference:(Reference.load ())
    | name, _ -> report_traced ~name ~seed ~work ~reference:(Reference.load ())
  in
  if result.failed > 0 then
    prerr_endline "perfbench: FAILED: outputs or counts differ from the reference (see above)";
  print_result result
