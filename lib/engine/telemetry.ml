(** Run telemetry: per-job wall time and simulated-cost accounting,
    aggregated across engine batches. *)

type t = {
  mutable jobs_run : int;  (** specs actually executed *)
  mutable jobs_cached : int;  (** specs served from the result cache *)
  mutable jobs_failed : int;  (** specs the supervisor gave up on *)
  mutable retries : int;  (** supervised attempts beyond each job's first *)
  mutable tasks_run : int;  (** uncached ad-hoc tasks ([Engine.run_tasks]) *)
  mutable cost_units : int64;  (** simulated cost consumed by executed jobs *)
  mutable busy_seconds : float;  (** sum of per-job wall times *)
  mutable wall_seconds : float;  (** elapsed time inside engine batches *)
  mutable batches : int;
  mutable trace : Dpmr_trace.Trace.summary;
      (** merged per-domain trace-sink summaries (traced campaigns only) *)
  mu : Mutex.t;
}

let create () =
  {
    jobs_run = 0;
    jobs_cached = 0;
    jobs_failed = 0;
    retries = 0;
    tasks_run = 0;
    cost_units = 0L;
    busy_seconds = 0.;
    wall_seconds = 0.;
    batches = 0;
    trace = Dpmr_trace.Trace.zero_summary;
    mu = Mutex.create ();
  }

let now () = Unix.gettimeofday ()

let record_job t ~wall ~cost =
  Mutex.protect t.mu (fun () ->
      t.jobs_run <- t.jobs_run + 1;
      t.busy_seconds <- t.busy_seconds +. wall;
      t.cost_units <- Int64.add t.cost_units cost)

let record_task t ~wall =
  Mutex.protect t.mu (fun () ->
      t.tasks_run <- t.tasks_run + 1;
      t.busy_seconds <- t.busy_seconds +. wall)

let record_cached t n = Mutex.protect t.mu (fun () -> t.jobs_cached <- t.jobs_cached + n)

let record_failed t ~wall =
  Mutex.protect t.mu (fun () ->
      t.jobs_failed <- t.jobs_failed + 1;
      t.busy_seconds <- t.busy_seconds +. wall)

let record_retries t n = Mutex.protect t.mu (fun () -> t.retries <- t.retries + n)

let record_trace t s =
  Mutex.protect t.mu (fun () ->
      t.trace <- Dpmr_trace.Trace.add_summary t.trace s)

let record_batch t ~wall =
  Mutex.protect t.mu (fun () ->
      t.batches <- t.batches + 1;
      t.wall_seconds <- t.wall_seconds +. wall)

(** Estimated speedup of the engine over running every executed job
    back-to-back on one domain: busy time over batch wall time.  [None]
    until enough signal exists to be meaningful. *)
let speedup_estimate t =
  if t.wall_seconds > 1e-6 && t.busy_seconds > 0. then Some (t.busy_seconds /. t.wall_seconds)
  else None

(* [tier] = (functions promoted, deopts) from [Vm.tier_stats]: a
   process-global counter pair the engine samples at summary time,
   passed in rather than read here to keep this module free of VM
   dependencies.  Only surfaced when the tier actually fired, so
   historical summary shapes are preserved. *)

let summary_lines ?(tier = (0, 0)) ?dispatch t ~workers
    ~(cache : Cache.stats option) =
  let total = t.jobs_run + t.jobs_cached + t.jobs_failed in
  let degraded =
    (* only surfaced when the supervisor actually intervened, so healthy
       runs keep the historical summary shape *)
    if t.jobs_failed = 0 && t.retries = 0 then ""
    else Printf.sprintf ", %d failed, %d retrie(s)" t.jobs_failed t.retries
  in
  let first =
    Printf.sprintf "[engine] %d jobs (%d run, %d cached%s), %d task(s), workers=%d" total
      t.jobs_run t.jobs_cached degraded t.tasks_run workers
  in
  let cache_line =
    match cache with
    | None -> "[engine] cache: disabled"
    | Some s ->
        let looked = s.Cache.hits + s.Cache.misses in
        let pct = if looked = 0 then 0. else 100. *. float_of_int s.Cache.hits /. float_of_int looked in
        let damage =
          if s.Cache.damaged = 0 then ""
          else Printf.sprintf ", %d damaged" s.Cache.damaged
        in
        Printf.sprintf "[engine] cache: %d hits / %d lookups (%.1f%%), %d added, %d evicted%s"
          s.Cache.hits looked pct s.Cache.added s.Cache.evicted damage
  in
  let time_line =
    let speed =
      match speedup_estimate t with
      | Some s when t.jobs_run + t.tasks_run > 0 ->
          Printf.sprintf " (%.2fx vs serial estimate)" s
      | _ -> ""
    in
    Printf.sprintf "[engine] time: busy %.2fs, wall %.2fs over %d batch(es)%s; sim cost %Ld units"
      t.busy_seconds t.wall_seconds t.batches speed t.cost_units
  in
  let tier_lines =
    let promoted, deopts = tier in
    if promoted = 0 && deopts = 0 then []
    else
      [ Printf.sprintf "[engine] tier: %d function(s) promoted, %d deopt(s)" promoted deopts ]
  in
  (* only surfaced when a remote dispatcher was wired in, so
     single-host runs keep the historical summary shape *)
  let dispatch_lines =
    match dispatch with
    | None -> []
    | Some d -> List.map (fun l -> "[engine] " ^ l) (Dispatch.summary_lines d)
  in
  let base = [ first; cache_line; time_line ] @ tier_lines @ dispatch_lines in
  (* only surfaced when a trace sink actually recorded something, so
     untraced runs keep the historical summary shape *)
  let tr = t.trace in
  if tr.Dpmr_trace.Trace.s_emitted = 0 then base
  else
    base
    @ [
        Printf.sprintf
          "[engine] trace: %d events (%d dropped), %d comparison(s), %d detection(s), %d injection mark(s)"
          tr.Dpmr_trace.Trace.s_emitted tr.Dpmr_trace.Trace.s_dropped
          tr.Dpmr_trace.Trace.s_comparisons tr.Dpmr_trace.Trace.s_detections
          tr.Dpmr_trace.Trace.s_fi_marks;
      ]

(** Machine-readable snapshot of everything {!summary_lines} reports
    (plus the raw fields), for CI trend tracking.  One flat JSON object;
    keys are stable, floats fixed-precision, absent subsystems [null]. *)
let to_json ?(tier = (0, 0)) ?dispatch t ~workers
    ~(cache : Cache.stats option) =
  let b = Buffer.create 512 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  add "{\n";
  add "  \"schema\": \"dpmr-telemetry/1\",\n";
  add "  \"workers\": %d,\n" workers;
  add "  \"jobs\": { \"run\": %d, \"cached\": %d, \"failed\": %d, \"total\": %d },\n"
    t.jobs_run t.jobs_cached t.jobs_failed
    (t.jobs_run + t.jobs_cached + t.jobs_failed);
  add "  \"retries\": %d,\n" t.retries;
  add "  \"tasks_run\": %d,\n" t.tasks_run;
  add "  \"cost_units\": %Ld,\n" t.cost_units;
  add "  \"busy_seconds\": %.3f,\n" t.busy_seconds;
  add "  \"wall_seconds\": %.3f,\n" t.wall_seconds;
  add "  \"batches\": %d,\n" t.batches;
  (match speedup_estimate t with
  | Some s -> add "  \"speedup_estimate\": %.2f,\n" s
  | None -> add "  \"speedup_estimate\": null,\n");
  (match cache with
  | None -> add "  \"cache\": null,\n"
  | Some c ->
      let looked = c.Cache.hits + c.Cache.misses in
      let pct =
        if looked = 0 then 0.
        else 100. *. float_of_int c.Cache.hits /. float_of_int looked
      in
      add
        "  \"cache\": { \"hits\": %d, \"lookups\": %d, \"hit_rate_pct\": %.1f, \"added\": %d, \"evicted\": %d, \"damaged\": %d },\n"
        c.Cache.hits looked pct c.Cache.added c.Cache.evicted c.Cache.damaged);
  (let promoted, deopts = tier in
   add "  \"tier\": { \"promoted\": %d, \"deopts\": %d },\n" promoted deopts);
  (match dispatch with
  | None -> add "  \"dispatch\": null,\n"
  | Some d ->
      let tot = Dispatch.totals d in
      add
        "  \"dispatch\": { \"remote_jobs\": %d, \"local_jobs\": %d, \"holes\": %d, \"hedges\": %d, \"hedge_wins\": %d, \"requeues\": %d, \"duplicate_results\": %d, \"hosts\": ["
        tot.Dispatch.t_remote_jobs tot.Dispatch.t_local_jobs tot.Dispatch.t_holes
        tot.Dispatch.t_hedges tot.Dispatch.t_hedge_wins tot.Dispatch.t_requeues
        tot.Dispatch.t_duplicate_results;
      List.iteri
        (fun i (h : Dispatch.host_stats) ->
          if i > 0 then add ", ";
          add
            "{ \"addr\": \"%s\", \"healthy\": %b, \"sent\": %d, \"completed\": %d, \"jobs\": %d, \"retried\": %d, \"hedged\": %d, \"quarantined\": %d, \"failures\": %d, \"rtt_p50_ms\": %.2f, \"rtt_p95_ms\": %.2f }"
            (Job.json_escape h.Dispatch.hs_addr)
            h.Dispatch.hs_healthy h.Dispatch.hs_sent h.Dispatch.hs_completed
            h.Dispatch.hs_jobs h.Dispatch.hs_retried h.Dispatch.hs_hedged
            h.Dispatch.hs_quarantined h.Dispatch.hs_failures h.Dispatch.hs_rtt_p50_ms
            h.Dispatch.hs_rtt_p95_ms)
        (Dispatch.host_stats d);
      add "] },\n");
  let tr = t.trace in
  add
    "  \"trace\": { \"emitted\": %d, \"dropped\": %d, \"comparisons\": %d, \"detections\": %d, \"fi_marks\": %d }\n"
    tr.Dpmr_trace.Trace.s_emitted tr.Dpmr_trace.Trace.s_dropped
    tr.Dpmr_trace.Trace.s_comparisons tr.Dpmr_trace.Trace.s_detections
    tr.Dpmr_trace.Trace.s_fi_marks;
  add "}\n";
  Buffer.contents b
