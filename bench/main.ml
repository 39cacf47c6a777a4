(* Benchmark harness.

   Two halves:

   1. Regenerate every evaluation table and figure of the paper (Chapters
      3 and 4) by running the actual experiments — this prints the same
      rows/series the paper reports, in cost-model units.

   2. A Bechamel microbenchmark per table/figure measuring the host-side
      cost of the representative operation behind it (transforming a
      workload, running one instrumented variant, one fault-injection
      experiment, ...), so regressions in the tooling itself are visible.

   Usage:
     dune exec bench/main.exe              # both halves
     dune exec bench/main.exe -- figures   # paper tables/figures only
     dune exec bench/main.exe -- micro     # bechamel microbenches only

   A third mode compares two shell commands A/B-style:

     dune exec bench/main.exe -- --compare [--rounds N] [--json FILE] \
       'CMD_BEFORE' 'CMD_AFTER'

   Each round runs both commands back-to-back (paired, so machine-load
   drift hits both sides of a pair equally) and the report is the ratio
   of the two per-command wall-time medians.

   The figures half goes through the parallel experiment engine
   (lib/engine): worker domains + the content-addressed result cache,
   with the engine summary printed to stderr at the end. *)

open Bechamel
open Toolkit
module Config = Dpmr_core.Config
module Dpmr = Dpmr_core.Dpmr
module Experiment = Dpmr_fi.Experiment
module Inject = Dpmr_fi.Inject
module Workloads = Dpmr_workloads.Workloads
module Figures = Dpmr_harness.Figures
module Engine = Dpmr_engine.Engine
module Job = Dpmr_engine.Job

(* ------------------------------------------------------------------ *)
(* Half 1: the paper's tables and figures                              *)
(* ------------------------------------------------------------------ *)

let run_figures () =
  let engine = Engine.create () in
  let ctx = Figures.create ~engine () in
  Figures.run_all ctx;
  Engine.print_summary engine;
  Engine.close engine

(* ------------------------------------------------------------------ *)
(* Half 2: bechamel microbenches, one per table/figure                 *)
(* ------------------------------------------------------------------ *)

let sds = Config.default
let mds = { Config.default with Config.mode = Config.Mds }

(* shared, built once *)
let equake = (Workloads.find "equake").Workloads.build ()
let mcf = (Workloads.find "mcf").Workloads.build ()

let run_cfg cfg prog () = ignore (Dpmr.run_dpmr cfg prog)
let transform_only cfg prog () = ignore (Dpmr.transform cfg prog)

let one_injection cfg kind prog () =
  let wk = Experiment.workload "bench" (fun () -> prog) in
  let e = Experiment.make wk in
  match Experiment.sites e kind with
  | site :: _ -> ignore (Experiment.run_variant e (Experiment.Fi_dpmr (cfg, kind, site)))
  | [] -> ()

let div_cfg mode d = { Config.default with Config.mode; diversity = d }
let pol_cfg mode p =
  { Config.default with Config.mode; diversity = Config.Rearrange_heap; policy = p }

(* One Test.make per table/figure: the representative operation whose
   cost dominates regenerating it. *)
let micro_tests =
  let t name f = Test.make ~name (Staged.stage f) in
  [
    t "table-3.1/transform-sds" (transform_only sds equake);
    t "table-3.2/transform-mds" (transform_only mds equake);
    t "fig-3.6/resize-injection-sds" (one_injection sds (Inject.Heap_array_resize 50) equake);
    t "fig-3.7/free-injection-sds" (one_injection sds Inject.Immediate_free equake);
    t "fig-3.8/resize-injection-mcf" (one_injection sds (Inject.Heap_array_resize 50) mcf);
    t "fig-3.9/free-injection-mcf" (one_injection sds Inject.Immediate_free mcf);
    t "fig-3.10/run-no-diversity" (run_cfg (div_cfg Config.Sds Config.No_diversity) equake);
    t "table-3.3/run-rearrange" (run_cfg (div_cfg Config.Sds Config.Rearrange_heap) equake);
    t "fig-3.11/run-pad-1024" (run_cfg (div_cfg Config.Sds (Config.Pad_malloc 1024)) equake);
    t "fig-3.12/run-zero-before-free" (run_cfg (div_cfg Config.Sds Config.Zero_before_free) equake);
    t "fig-3.13/run-temporal-12" (run_cfg (pol_cfg Config.Sds (Config.Temporal Config.temporal_mask_1_2)) equake);
    t "fig-3.14/run-static-10" (run_cfg (pol_cfg Config.Sds (Config.Static 0.1)) equake);
    t "fig-3.15/run-all-loads" (run_cfg (pol_cfg Config.Sds Config.All_loads) equake);
    t "fig-3.16/periodicity" (fun () -> ignore (Dpmr_harness.Periodicity.measure ()));
    t "table-3.4/run-static-90" (run_cfg (pol_cfg Config.Sds (Config.Static 0.9)) equake);
    t "fig-4.3/run-mds-no-diversity" (run_cfg (div_cfg Config.Mds Config.No_diversity) equake);
    t "fig-4.4/run-mds-static-50" (run_cfg (pol_cfg Config.Mds (Config.Static 0.5)) equake);
    t "fig-4.5/run-mds-pad-256" (run_cfg (div_cfg Config.Mds (Config.Pad_malloc 256)) mcf);
    t "fig-4.6/run-mds-temporal-78" (run_cfg (pol_cfg Config.Mds (Config.Temporal Config.temporal_mask_7_8)) mcf);
    t "fig-4.7/resize-injection-mds" (one_injection mds (Inject.Heap_array_resize 50) equake);
    t "fig-4.8/free-injection-mds" (one_injection mds Inject.Immediate_free equake);
    t "fig-4.9/resize-injection-mds-mcf" (one_injection mds (Inject.Heap_array_resize 50) mcf);
    t "fig-4.10/free-injection-mds-mcf" (one_injection mds Inject.Immediate_free mcf);
    t "fig-4.11/run-mds-rearrange" (run_cfg (div_cfg Config.Mds Config.Rearrange_heap) equake);
    t "fig-4.12/run-mds-rearrange-mcf" (run_cfg (div_cfg Config.Mds Config.Rearrange_heap) mcf);
    t "fig-4.13/golden-equake" (fun () -> ignore (Dpmr.run_plain equake));
    t "fig-4.14/golden-mcf" (fun () -> ignore (Dpmr.run_plain mcf));
    t "table-4.5/dsa-scope-equake" (fun () -> ignore (Dpmr_dsa.Scope.compute equake));
    t "table-4.6/dsa-transform-mcf" (fun () -> ignore (Dpmr_dsa.Dsa_dpmr.transform mds mcf));
    (* the lowered threaded-code engine vs the reference tree-walker,
       plus the one-time lowering cost itself (amortized across runs) *)
    t "vm/lower-mcf" (fun () -> ignore (Dpmr_vm.Lower.lower_prog mcf));
    (t "vm/run-lowered-mcf"
       (let lowered = Dpmr_vm.Lower.lower_prog mcf in
        fun () -> ignore (Dpmr.run_plain ~lowered mcf)));
    (t "vm/run-reference-mcf"
       (fun () ->
         let vm = Dpmr.vm_plain mcf in
         ignore (Dpmr_vm.Vm.run_reference vm)));
    (t "engine/job-hash"
       (let e = Experiment.make (Experiment.workload "equake" (fun () -> (Workloads.find "equake").Workloads.build ())) in
        let spec = Job.make e ~workload:"equake" ~scale:1 ~run_seed:42L (Experiment.Nofi_dpmr sds) in
        fun () -> ignore (Job.hash spec)));
  ]

let run_micro () =
  print_endline "\n=== Bechamel microbenchmarks (host-side tool cost) ===\n";
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:50 ~quota:(Time.second 0.25) ~kde:None () in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  Printf.printf "%-36s %14s\n" "benchmark" "time/run";
  Printf.printf "%s\n" (String.make 54 '-');
  List.iter
    (fun test ->
      List.iter
        (fun elt ->
          let m = Benchmark.run cfg instances elt in
          let est = Analyze.one ols Instance.monotonic_clock m in
          match Analyze.OLS.estimates est with
          | Some (e :: _) ->
              let name = Test.Elt.name elt in
              if e > 1e9 then Printf.printf "%-36s %11.2f s\n" name (e /. 1e9)
              else if e > 1e6 then Printf.printf "%-36s %11.2f ms\n" name (e /. 1e6)
              else Printf.printf "%-36s %11.2f us\n" name (e /. 1e3)
          | _ -> Printf.printf "%-36s %14s\n" (Test.Elt.name elt) "n/a")
        (Test.elements test))
    micro_tests

(* ------------------------------------------------------------------ *)
(* Mode 3: paired A/B comparison of two shell commands                  *)
(* ------------------------------------------------------------------ *)

let median a =
  let s = Array.copy a in
  Array.sort compare s;
  let n = Array.length s in
  if n = 0 then nan
  else if n land 1 = 1 then s.(n / 2)
  else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.

let timed_command cmd =
  let t0 = Unix.gettimeofday () in
  let rc = Sys.command cmd in
  let wall = Unix.gettimeofday () -. t0 in
  if rc <> 0 then (
    Printf.eprintf "compare: command exited %d: %s\n%!" rc cmd;
    exit 1);
  wall

let run_compare ~rounds ~json cmd_a cmd_b =
  let ta = Array.make rounds 0. and tb = Array.make rounds 0. in
  (* one untimed warmup pair so cold caches (file system, result cache
     state) are charged to neither side *)
  ignore (timed_command cmd_a);
  ignore (timed_command cmd_b);
  for i = 0 to rounds - 1 do
    ta.(i) <- timed_command cmd_a;
    tb.(i) <- timed_command cmd_b;
    Printf.printf "round %d/%d: A %.3fs  B %.3fs  (A/B %.2fx)\n%!" (i + 1)
      rounds ta.(i) tb.(i)
      (ta.(i) /. tb.(i))
  done;
  let ma = median ta and mb = median tb in
  let speedup = ma /. mb in
  Printf.printf "\nA: %s\nB: %s\n" cmd_a cmd_b;
  Printf.printf "median A %.3fs, median B %.3fs — B is %.2fx vs A\n" ma mb
    speedup;
  match json with
  | None -> ()
  | Some file ->
      let b = Buffer.create 512 in
      let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
      let floats a =
        String.concat ", "
          (List.map (Printf.sprintf "%.4f") (Array.to_list a))
      in
      add "{\n";
      add "  \"schema\": \"dpmr-bench-compare/1\",\n";
      add "  \"cmd_before\": \"%s\",\n" (Dpmr_trace.Export.escaped cmd_a);
      add "  \"cmd_after\": \"%s\",\n" (Dpmr_trace.Export.escaped cmd_b);
      add "  \"rounds\": %d,\n" rounds;
      add "  \"before_seconds\": [%s],\n" (floats ta);
      add "  \"after_seconds\": [%s],\n" (floats tb);
      add "  \"median_before_seconds\": %.4f,\n" ma;
      add "  \"median_after_seconds\": %.4f,\n" mb;
      add "  \"speedup\": %.3f\n" speedup;
      add "}\n";
      let oc = open_out file in
      output_string oc (Buffer.contents b);
      close_out oc;
      Printf.printf "wrote %s\n" file

let compare_main args =
  let rounds = ref 5 and json = ref None and cmds = ref [] in
  let rec parse = function
    | "--rounds" :: n :: rest ->
        (match int_of_string_opt n with
        | Some v when v > 0 -> rounds := v
        | _ ->
            Printf.eprintf "compare: bad --rounds %S\n" n;
            exit 2);
        parse rest
    | "--json" :: file :: rest ->
        json := Some file;
        parse rest
    | cmd :: rest ->
        cmds := cmd :: !cmds;
        parse rest
    | [] -> ()
  in
  parse args;
  match List.rev !cmds with
  | [ a; b ] -> run_compare ~rounds:!rounds ~json:!json a b
  | _ ->
      Printf.eprintf
        "usage: bench/main.exe --compare [--rounds N] [--json FILE] 'CMD_BEFORE' 'CMD_AFTER'\n";
      exit 2

let () =
  let what = if Array.length Sys.argv > 1 then Sys.argv.(1) else "both" in
  if what = "--compare" then
    compare_main (Array.to_list (Array.sub Sys.argv 2 (Array.length Sys.argv - 2)))
  else begin
    if what = "figures" || what = "both" then run_figures ();
    if what = "micro" || what = "both" then run_micro ()
  end
