(** Traced fault-injection runs: the bridge between {!Experiment} and the
    {!Dpmr_trace} forensics pass.

    [run_variant] repeats an {!Experiment.run_variant} with a trace sink
    installed for the duration of the run, analyzes the recorded events,
    and cross-checks the trace-derived corruption→detection distance
    against the classification's [t2d] (Equation 3.4): for a DPMR
    detection the distance is measured to the recorded detect event, for
    a natural detection (crash / error exit) to the end of the run —
    both must equal [cost - fi_first_cost] exactly, because the
    detection exception stops all cost accrual. *)

module Trace = Dpmr_trace.Trace
module Analysis = Dpmr_trace.Forensics
module Export = Dpmr_trace.Export

type traced = {
  classification : Experiment.classification;
  records : Trace.record array;
  report : Analysis.report;
  summary : Trace.summary;
  distance : int option;
      (** resolved corruption→detection distance: the trace's own for
          DPMR detections, run-end for natural ones, [None] for misses *)
  consistent : bool;  (** [distance] agrees exactly with [t2d] *)
}

let default_capacity = 1 lsl 19

let run_variant ?seed ?(capacity = default_capacity) ?(sample_every = 64) t
    variant =
  let sink = Trace.create ~capacity ~sample_every () in
  let classification =
    Trace.with_sink sink (fun () -> Experiment.run_variant ?seed t variant)
  in
  let records = Trace.snapshot sink in
  let report =
    Analysis.analyze ~heap_base:Dpmr_memsim.Mem.heap_base
      ~dropped:(Trace.dropped sink) records
  in
  (* the trace alone cannot distinguish a miss from a natural detection
     (both end without a detect event); the classification can *)
  let report =
    if
      classification.Experiment.ndet
      && report.Analysis.verdict <> Analysis.Detected
      && report.Analysis.verdict <> Analysis.Not_injected
    then { report with Analysis.verdict = Analysis.Detected_naturally }
    else report
  in
  let distance =
    match report.Analysis.distance with
    | Some d -> Some d
    | None -> (
        match report.Analysis.injected_at with
        | Some inj when classification.Experiment.ndet ->
            Some (Int64.to_int classification.Experiment.cost - inj)
        | _ -> None)
  in
  let consistent =
    match (classification.Experiment.t2d, distance) with
    | Some t2d, Some d -> Int64.to_int t2d = d
    | None, None -> true
    | _ -> false
  in
  {
    classification;
    records;
    report;
    summary = Trace.summary sink;
    distance;
    consistent;
  }

(** Short human label for the run's fate, folding the trace verdict into
    the §3.6 classification. *)
let fate (tr : traced) =
  let c = tr.classification in
  if not c.Experiment.sf then "not-triggered"
  else if c.Experiment.ddet then "dpmr-detect"
  else if c.Experiment.ndet then "natural-detect"
  else if c.Experiment.timeout then "timeout"
  else
    match tr.report.Analysis.verdict with
    | Analysis.Miss_no_comparison -> "miss (check never reached)"
    | Analysis.Miss_replica_agreed _ -> "miss (replica agreed)"
    | Analysis.Detected | Analysis.Detected_naturally | Analysis.Not_injected
      ->
        "miss"

(* ---------------- machine-readable report ---------------- *)

(** One flat JSON object summarizing a traced run — the [forensics]
    payload of a serving-daemon verdict.  Human-oriented parts
    (corruption, verdict) reuse the report pretty-printers, so the wire
    text matches the [report forensics] grid exactly. *)
let to_json (tr : traced) =
  let b = Buffer.create 256 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  let r = tr.report in
  add "{\"schema\":\"dpmr-forensics/1\"";
  add ",\"fate\":\"%s\"" (Export.escaped (fate tr));
  add ",\"verdict\":\"%s\"" (Export.escaped (Fmt.str "%a" Analysis.pp_verdict r.Analysis.verdict));
  (match r.Analysis.injected_at with
  | Some c -> add ",\"injected_at\":%d" c
  | None -> add ",\"injected_at\":null");
  (match r.Analysis.corruption with
  | Some c -> add ",\"corruption\":\"%s\"" (Export.escaped (Fmt.str "%a" Analysis.pp_corruption c))
  | None -> add ",\"corruption\":null");
  (match r.Analysis.first_bad_store with
  | Some (cost, c) ->
      add ",\"first_bad_store\":\"%s\",\"first_bad_store_at\":%d"
        (Export.escaped (Fmt.str "%a" Analysis.pp_corruption c))
        cost
  | None -> add ",\"first_bad_store\":null,\"first_bad_store_at\":null");
  (match r.Analysis.detection with
  | Some d ->
      add ",\"detected_what\":\"%s\",\"detected_at\":%d" (Export.escaped d.Analysis.what)
        d.Analysis.at_cost
  | None -> add ",\"detected_what\":null,\"detected_at\":null");
  (match tr.distance with
  | Some d -> add ",\"distance\":%d" d
  | None -> add ",\"distance\":null");
  add ",\"compares_after\":%d" r.Analysis.compares_after;
  add ",\"consistent\":%b" tr.consistent;
  add ",\"truncated\":%b" r.Analysis.truncated;
  add ",\"events\":%d,\"dropped\":%d" tr.summary.Trace.s_emitted tr.summary.Trace.s_dropped;
  add "}";
  Buffer.contents b
