(* The job mixes the layer replay samples from.  A cell is one series of
   a report figure: an application, an optional fault kind and an
   optional DPMR configuration; its jobs are the cell's variant at every
   injection site [Experiment.sites] lists.  The cells below are the
   ones the report figures sweep (programs, modes, fault kinds, replica
   counts), so a uniform draw over their jobs follows each workload's
   job mix. *)

module Config = Dpmr_core.Config
module Experiment = Dpmr_fi.Experiment
module Inject = Dpmr_fi.Inject
module Surface = Dpmr_nversion.Surface

type job = {
  app : string;
  exp_seed : int64;
  run_seed : int64;
  variant : Experiment.variant;
}

type cell = { app : string; kind : Inject.kind option; cfg : Config.t option }

(** The paper's seed: every report figure runs at it. *)
let report_seed = 42L

let apps = [ "art"; "bzip2"; "equake"; "mcf" ]
let kind_resize = Inject.Heap_array_resize 50

let diversities =
  Config.
    [
      No_diversity; Zero_before_free; Rearrange_heap; Pad_malloc 8; Pad_malloc 32;
      Pad_malloc 256; Pad_malloc 1024;
    ]

let policies =
  Config.
    [
      All_loads; Temporal temporal_mask_1_8; Temporal temporal_mask_1_2;
      Temporal temporal_mask_7_8; Static 0.10; Static 0.50; Static 0.90;
    ]

let div_cfg mode d = { Config.default with Config.mode; diversity = d }

let pol_cfg mode p =
  { Config.default with Config.mode; diversity = Config.Rearrange_heap; policy = p }

let grid_cells =
  let cfgs mode = List.map (div_cfg mode) diversities @ List.map (pol_cfg mode) policies in
  let both = cfgs Config.Sds @ cfgs Config.Mds in
  List.concat_map
    (fun app ->
      let cell kind cfg = { app; kind; cfg } in
      List.concat_map
        (fun kind ->
          cell (Some kind) None :: List.map (fun c -> cell (Some kind) (Some c)) both)
        [ kind_resize; Inject.Immediate_free ]
      @ List.map (fun c -> cell None (Some c)) both
      @ List.concat_map
          (fun (kind, d) ->
            cell (Some kind) None
            :: List.map (fun m -> cell (Some kind) (Some (div_cfg m d))) Config.[ Sds; Mds ])
          [ (Inject.Off_by_one, Config.Rearrange_heap);
            (Inject.Wild_store 4096, Config.No_diversity) ])
    apps

let surface_cells =
  let cfgs =
    List.concat_map
      (fun (_, families) -> List.map (fun n -> Surface.cfg ~n ~families ()) Surface.ns)
      Surface.family_sets
  in
  List.concat_map
    (fun app ->
      List.concat_map
        (fun kind ->
          { app; kind = Some kind; cfg = None }
          :: List.map (fun c -> { app; kind = Some kind; cfg = Some c }) cfgs)
        [ kind_resize; Inject.Immediate_free ]
      @ List.map
          (fun n ->
            let families = List.assoc "all-families" Surface.family_sets in
            { app; kind = None; cfg = Some (Surface.cfg ~n ~families ()) })
          Surface.ns)
    apps

(** A cell's variants, one per injection site of its experiment. *)
let cell_variants (e : Experiment.t) (c : cell) =
  match (c.kind, c.cfg) with
  | None, None -> [ Experiment.Golden ]
  | None, Some cfg -> [ Experiment.Nofi_dpmr cfg ]
  | Some k, None -> List.map (fun s -> Experiment.Fi_stdapp (k, s)) (Experiment.sites e k)
  | Some k, Some cfg ->
      List.map (fun s -> Experiment.Fi_dpmr (cfg, k, s)) (Experiment.sites e k)

let config_of_variant = function
  | Experiment.Golden | Experiment.Fi_stdapp _ -> None
  | Experiment.Nofi_dpmr c | Experiment.Fi_dpmr (c, _, _) -> Some c

(** Draw [k] distinct elements of [xs] with [rng]. *)
let sample rng k xs =
  let a = Array.of_list xs in
  let n = Array.length a in
  for i = 0 to min k n - 1 do
    let j = i + Random.State.int rng (n - i) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list (Array.sub a 0 (min k n))

(** [k] jobs drawn uniformly from every job of [cells], deduplicated the
    way the engine deduplicates specs. *)
let sample_jobs ~ctx rng k cells =
  let seen = Hashtbl.create 1024 in
  let jobs =
    List.concat_map
      (fun (c : cell) ->
        let e = ctx c.app report_seed in
        List.filter_map
          (fun v ->
            let key = Dpmr_engine.Job.(hash (make e ~workload:c.app ~scale:1 ~run_seed:report_seed v)) in
            if Hashtbl.mem seen key then None
            else begin
              Hashtbl.replace seen key ();
              Some { app = c.app; exp_seed = report_seed; run_seed = report_seed; variant = v }
            end)
          (cell_variants e c))
      cells
  in
  (List.length jobs, sample rng k jobs)
