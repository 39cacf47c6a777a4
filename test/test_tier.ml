(* Tiered execution: the closure-compiled top tier must be invisible.
   Two groups of checks:

   1. differential — real workloads produce byte-identical outcomes
      under the reference tree-walker, the lowered interpreter, and the
      forced compiled tier;

   2. a fault-injection grid classifies identically whether members run
      lowered or compiled — and the compiled tier actually deoptimizes
      when the injected fault activates mid-run. *)

module Config = Dpmr_core.Config
module Dpmr = Dpmr_core.Dpmr
module Vm = Dpmr_vm.Vm
module Lower = Dpmr_vm.Lower
module Outcome = Dpmr_vm.Outcome
module Experiment = Dpmr_fi.Experiment
module Inject = Dpmr_fi.Inject
module Workloads = Dpmr_workloads.Workloads

let with_tier mode f =
  let old = Vm.tier_mode () in
  Vm.set_tier_mode mode;
  Fun.protect ~finally:(fun () -> Vm.set_tier_mode old) f

let run_fp (r : Outcome.run) =
  Printf.sprintf "%s cost=%Ld heap=%d out=%S"
    (Outcome.to_string r.Outcome.outcome)
    r.Outcome.cost r.Outcome.peak_heap_bytes r.Outcome.output

(* ---- 1. three-tier differential on real workloads ------------------- *)

let test_three_tiers_agree () =
  List.iter
    (fun name ->
      let entry = Workloads.find name in
      let p = entry.Workloads.build ~scale:1 () in
      let golden mode = with_tier mode (fun () -> run_fp (Dpmr.run_plain p)) in
      let reference = golden Vm.Tier_ref in
      Alcotest.(check string)
        (name ^ ": lowered = reference") reference (golden Vm.Tier_lowered);
      Alcotest.(check string)
        (name ^ ": compiled = reference") reference (golden Vm.Tier_compiled);
      Alcotest.(check string)
        (name ^ ": auto = reference") reference (golden Vm.Tier_auto);
      let cfg = { Config.default with Config.diversity = Config.Rearrange_heap } in
      let dpmr mode = with_tier mode (fun () -> run_fp (Dpmr.run_dpmr cfg p)) in
      let lowered = dpmr Vm.Tier_lowered in
      Alcotest.(check string)
        (name ^ ": transformed compiled = lowered") lowered
        (dpmr Vm.Tier_compiled))
    [ "equake"; "mcf" ]

(* ---- 2. fault grid: lowered vs compiled ----------------------------- *)

let test_grid_tiers_agree () =
  let entry = Workloads.find "mcf" in
  let e =
    Experiment.make
      (Experiment.workload "mcf" (fun () -> entry.Workloads.build ~scale:1 ()))
  in
  let cfg = { Config.default with Config.diversity = Config.Rearrange_heap } in
  let kind = Inject.Immediate_free in
  let sites =
    match Experiment.sites e kind with
    | a :: b :: c :: d :: _ -> [ a; b; c; d ]
    | l -> l
  in
  Alcotest.(check bool) "workload has injectable sites" true (sites <> []);
  let variants =
    Array.of_list (List.map (fun s -> Experiment.Fi_dpmr (cfg, kind, s)) sites)
  in
  let classify_all mode =
    with_tier mode (fun () -> Array.to_list (Array.map (Experiment.run_variant e) variants))
  in
  let baseline = classify_all Vm.Tier_lowered in
  Alcotest.(check bool)
    "at least one injection activated" true
    (List.exists (fun c -> c.Experiment.sf) baseline);
  let _, deopts_before = Vm.tier_stats () in
  Alcotest.(check bool)
    "compiled grid = lowered" true
    (classify_all Vm.Tier_compiled = baseline);
  let _, deopts_after = Vm.tier_stats () in
  Alcotest.(check bool)
    "fault activation forced compiled-tier deopts" true
    (deopts_after > deopts_before)

let suites =
  [
    ( "tier",
      [
        Alcotest.test_case "three tiers agree on workloads" `Quick
          test_three_tiers_agree;
        Alcotest.test_case "fault grid agrees across tiers" `Quick
          test_grid_tiers_agree;
      ] );
  ]
