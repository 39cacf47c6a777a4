(* One production engine beside the reference spec: compiled code must
   be invisible.  Three groups of checks:

   1. differential — real workloads produce byte-identical outcomes
      under the reference tree-walker and the production engine, which
      compiles every function at its first call;

   2. a fault-injection grid (both fault kinds, SDS and MDS) classifies
      identically, [t2d] included, on both engines — compiled code runs
      straight through an activated fault, so this is the check that
      doing so changes nothing observable;

   3. traced runs emit the event stream pinned below: the digests were
      recorded when traced runs still executed on a separate lowered
      interpreter, so compiled code must reproduce that stream event
      for event (tier events, which only that interpreter emitted,
      dropped). *)

module Config = Dpmr_core.Config
module Dpmr = Dpmr_core.Dpmr
module Vm = Dpmr_vm.Vm
module Outcome = Dpmr_vm.Outcome
module Experiment = Dpmr_fi.Experiment
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

(* ---- 1. differential on real workloads ----------------------------- *)

let test_engines_agree () =
  List.iter
    (fun name ->
      let entry = Workloads.find name in
      let p = entry.Workloads.build ~scale:1 () in
      let golden mode = with_tier mode (fun () -> run_fp (Dpmr.run_plain p)) in
      Alcotest.(check string)
        (name ^ ": compiled = reference")
        (golden Vm.Tier_ref) (golden Vm.Tier_compiled);
      let cfg = { Config.default with Config.diversity = Config.Rearrange_heap } in
      let dpmr mode = with_tier mode (fun () -> run_fp (Dpmr.run_dpmr cfg p)) in
      Alcotest.(check string)
        (name ^ ": transformed compiled = reference")
        (dpmr Vm.Tier_ref) (dpmr Vm.Tier_compiled))
    [ "equake"; "mcf" ]

(* ---- 2. fault grid: both engines ----------------------------------- *)

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
  let compiled () = fst (Vm.tier_stats ()) in
  let reference = classify_all Vm.Tier_ref in
  Alcotest.(check bool)
    "at least one injection activated" true
    (List.exists (fun c -> c.Experiment.sf) reference);
  let before = compiled () in
  Alcotest.(check bool)
    "compiled grid = reference" true
    (classify_all Vm.Tier_compiled = reference);
  Alcotest.(check bool) "grid ran compiled code" true (compiled () > before);
  Alcotest.(check int) "no deopt is ever counted" 0 (snd (Vm.tier_stats ()))

(* ---- 3. pinned trace streams --------------------------------------- *)

(* MD5 of the decoded stream, one [pp_record] line per event.  The ring
   is sized so that none of these runs wraps: a wrap would make the kept
   window depend on events outside it. *)
let stream_digest run =
  let sink = Trace.create ~capacity:(1 lsl 18) () in
  let _ : Outcome.run = Trace.with_sink sink run in
  Alcotest.(check int) "ring did not wrap" 0 (Trace.dropped sink);
  let b = Buffer.create 4096 in
  Array.iter
    (fun (r : Trace.record) ->
      match r.Trace.ev with
      | Trace.Tier _ -> Alcotest.fail "a tier event was emitted"
      | _ -> Buffer.add_string b (Format.asprintf "%a\n" Trace.pp_record r))
    (Trace.snapshot sink);
  Digest.to_hex (Digest.string (Buffer.contents b))

let pinned_streams =
  [
    ("art", "01cea3d3d298079c83c5f066688dfe1a");
    ("bzip2", "1111fa9713903a0d933598ca7ffab86a");
    ("equake", "8ca21cc12980e252d557db90f3811b58");
    ("mcf", "5982cdf39f6c0e392fa34457594ad042");
  ]

let pinned_faults =
  [
    (Inject.Heap_array_resize 50, "ad8e403eb03652b6beb0e5304fea202e");
    (Inject.Immediate_free, "42967e722882434b63f131869e555898");
  ]

let test_trace_digests () =
  Alcotest.(check (list string))
    "every workload pinned" Workloads.names (List.map fst pinned_streams);
  List.iter
    (fun (name, digest) ->
      let p = (Workloads.find name).Workloads.build ~scale:1 () in
      Alcotest.(check string)
        (name ^ " traced stream") digest
        (stream_digest (fun () -> Dpmr.run_dpmr Config.default p)))
    pinned_streams;
  (* the first site of each fault kind in mcf, under the experiment
     harness's 20x-golden budget *)
  let base = (Workloads.find "mcf").Workloads.build ~scale:1 () in
  let budget = Int64.mul 20L (Dpmr.run_plain base).Outcome.cost in
  List.iter
    (fun (kind, digest) ->
      let faulty = Inject.apply base kind (List.hd (Inject.sites kind base)) in
      Alcotest.(check string)
        ("mcf " ^ Inject.kind_name kind ^ " traced stream")
        digest
        (stream_digest (fun () -> Dpmr.run_dpmr ~budget Config.default faulty)))
    pinned_faults

let suites =
  [
    ( "tier",
      [
        Alcotest.test_case "compiled and reference agree on workloads" `Quick
          test_engines_agree;
        Alcotest.test_case "fault grid agrees across tiers" `Quick
          test_grid_tiers_agree;
        Alcotest.test_case "traced event streams pinned" `Quick
          test_trace_digests;
      ] );
  ]
