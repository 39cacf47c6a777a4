(* Tiered execution: the closure-compiled top tier must be invisible.
   Three groups of checks:

   1. differential — real workloads produce byte-identical outcomes
      under the reference tree-walker, the lowered interpreter, and the
      forced compiled tier;

   2. a fault-injection grid (both fault kinds, SDS and MDS) classifies
      identically, [t2d] included, under every tier mode — compiled code
      runs straight through an activated fault, so this is the check
      that doing so changes nothing observable;

   3. a trace sink pins the lowered tier: a hot traced run promotes
      nothing, records the refusal once, and its forensics agree with
      the classification. *)

module Config = Dpmr_core.Config
module Dpmr = Dpmr_core.Dpmr
module Vm = Dpmr_vm.Vm
module Lower = Dpmr_vm.Lower
module Outcome = Dpmr_vm.Outcome
module Experiment = Dpmr_fi.Experiment
module Forensics = Dpmr_fi.Forensics
module Inject = Dpmr_fi.Inject
module Workloads = Dpmr_workloads.Workloads
module Trace = Dpmr_trace.Trace

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

(* ---- 2. fault grid: every tier mode -------------------------------- *)

let equake_experiment () =
  let entry = Workloads.find "equake" in
  Experiment.make
    (Experiment.workload "equake" (fun () -> entry.Workloads.build ~scale:1 ()))

let first n l = List.filteri (fun i _ -> i < n) l

let test_grid_tiers_agree () =
  let e = equake_experiment () in
  let variants =
    List.concat_map
      (fun mode ->
        let cfg =
          { Config.default with Config.mode; diversity = Config.Rearrange_heap }
        in
        List.concat_map
          (fun kind ->
            let sites = first 4 (Experiment.sites e kind) in
            Alcotest.(check int)
              (Printf.sprintf "%s %s: four injectable sites"
                 (Config.mode_name mode) (Inject.kind_name kind))
              4 (List.length sites);
            List.map (fun s -> Experiment.Fi_dpmr (cfg, kind, s)) sites)
          [ Inject.Immediate_free; Inject.Heap_array_resize 50 ])
      [ Config.Sds; Config.Mds ]
  in
  let classify_all mode =
    with_tier mode (fun () -> List.map (Experiment.run_variant e) variants)
  in
  let promoted () = fst (Vm.tier_stats ()) in
  let reference = classify_all Vm.Tier_ref in
  Alcotest.(check bool)
    "at least one injection activated" true
    (List.exists (fun c -> c.Experiment.sf) reference);
  let lowered = classify_all Vm.Tier_lowered in
  Alcotest.(check bool) "lowered grid = reference" true (lowered = reference);
  List.iter
    (fun (name, mode) ->
      let before = promoted () in
      Alcotest.(check bool)
        (name ^ " grid = lowered") true
        (classify_all mode = lowered);
      Alcotest.(check bool)
        (name ^ " grid ran compiled code") true
        (promoted () > before))
    [ ("compiled", Vm.Tier_compiled); ("auto", Vm.Tier_auto) ];
  Alcotest.(check int) "no deopt is ever counted" 0 (snd (Vm.tier_stats ()))

(* ---- 3. a trace sink pins the lowered tier ------------------------- *)

let test_sink_pins_lowered () =
  with_tier Vm.Tier_auto @@ fun () ->
  let e = equake_experiment () in
  let cfg = { Config.default with Config.diversity = Config.Rearrange_heap } in
  let site = List.hd (Experiment.sites e Inject.Immediate_free) in
  let variant = Experiment.Fi_dpmr (cfg, Inject.Immediate_free, site) in
  let promoted () = fst (Vm.tier_stats ()) in
  (* the run is hot: without a sink it promotes *)
  let before = promoted () in
  let untraced = Experiment.run_variant e variant in
  Alcotest.(check bool) "untraced run promotes" true (promoted () > before);
  let before = promoted () in
  let tr = Forensics.run_variant e variant in
  Alcotest.(check int) "traced run promotes nothing" before (promoted ());
  let refusals =
    Array.fold_left
      (fun n (r : Trace.record) ->
        match r.Trace.ev with
        | Trace.Tier { transition = Trace.Tier_refused; _ } -> n + 1
        | Trace.Tier _ -> Alcotest.fail "tier transition other than a refusal"
        | _ -> n)
      0 tr.Forensics.records
  in
  Alcotest.(check int) "one refusal recorded" 1 refusals;
  Alcotest.(check bool) "injection activated" true
    tr.Forensics.classification.Experiment.sf;
  Alcotest.(check bool) "forensics consistent" true tr.Forensics.consistent;
  Alcotest.(check bool)
    "traced classification = untraced" true
    (tr.Forensics.classification = untraced)

let suites =
  [
    ( "tier",
      [
        Alcotest.test_case "three tiers agree on workloads" `Quick
          test_three_tiers_agree;
        Alcotest.test_case "fault grid agrees across tiers" `Quick
          test_grid_tiers_agree;
        Alcotest.test_case "trace sink pins the lowered tier" `Quick
          test_sink_pins_lowered;
      ] );
  ]
