(* The configuration codec: cache keys, cache records and wire frames
   pinned byte for byte; every canonical atom of [Config]/[Inject]
   round-trips (qcheck) and distinct configs get distinct cache-key
   reprs; out-of-range values are typed errors on the wire and on the
   CLI, whose shorthand aliases still parse; and every in-range pad is
   error-free (golden output, no detection). *)

module Config = Dpmr_core.Config
module Dpmr = Dpmr_core.Dpmr
module Outcome = Dpmr_vm.Outcome
module Inject = Dpmr_fi.Inject
module Experiment = Dpmr_fi.Experiment
module Job = Dpmr_engine.Job
module Protocol = Dpmr_server.Protocol
module Figures = Dpmr_harness.Figures
module Workloads = Dpmr_workloads.Workloads

let () = Dpmr_nversion.Families.ensure ()
let site func block index = { Inject.func; block; index }

let spec ?(workload = "art") ?(exp_seed = 42L) ?(run_seed = 42L) ?(budget = 123456L) variant =
  { Job.workload; scale = 1; exp_seed; run_seed; budget; variant }

let cfg ?(mode = Config.Sds) ?(policy = Config.All_loads) ?(seed = 42L) diversity =
  { Config.default with Config.mode; diversity; policy; seed }

let pinned_specs =
  [
    spec Experiment.Golden;
    spec ~workload:"bzip2"
      (Experiment.Fi_stdapp (Inject.Heap_array_resize 50, site "main" "entry" 3));
    spec (Experiment.Nofi_dpmr Config.default);
    spec ~workload:"mcf"
      (Experiment.Nofi_dpmr
         (cfg ~mode:Config.Mds ~policy:(Config.Temporal Config.temporal_mask_1_8)
            (Config.Pad_malloc 32)));
    spec ~workload:"equake"
      (Experiment.Fi_dpmr
         ( cfg ~policy:(Config.Static 0.10) Config.Zero_before_free,
           Inject.Immediate_free,
           site "compress" "bb3" 0 ));
    spec
      (Experiment.Fi_dpmr
         ( cfg ~mode:Config.Mds ~policy:(Config.Static 0.5) Config.Rearrange_heap,
           Inject.Off_by_one,
           site "f0" "loop.body" 12 ));
    spec ~exp_seed:(-1L) ~run_seed:Int64.max_int
      (Experiment.Fi_dpmr
         ( cfg ~policy:(Config.Temporal Config.temporal_mask_7_8) ~seed:(-7L)
             (Config.Pad_alloca 64),
           Inject.Wild_store 4096,
           site "main" "bb \"7\"" 1 ));
    spec
      (Experiment.Nofi_dpmr
         {
           Config.default with
           Config.replicas = 3;
           families = [ "layout-perm"; "pad-jitter" ];
           vote = Config.Majority;
         });
    spec ~workload:"bzip2"
      (Experiment.Fi_dpmr
         ( { (cfg (Config.Pad_malloc 0)) with Config.replicas = 2 },
           Inject.Wild_store (-8),
           site "main" "entry" 0 ));
    spec ~workload:"mcf" ~budget:0L
      (Experiment.Fi_dpmr
         ( cfg ~policy:(Config.Static 0.9) (Config.Pad_malloc 1024),
           Inject.Heap_array_resize 75,
           site "main" "entry" 2 ));
  ]

let default_frame = { Protocol.rid = 1; body = Protocol.Run Protocol.default_run }

let nversion_frame =
  {
    Protocol.rid = 99;
    body =
      Protocol.Run
        {
          Protocol.default_run with
          Protocol.workload = "bzip2";
          kind = Some (Inject.Heap_array_resize 50);
          site_ref = Some (site "main" "bb \"7\"\t" 4);
          mode = Config.Mds;
          diversity = Config.Pad_alloca 16;
          policy = Config.Static 0.25;
          replicas = 3;
          families = [ "layout-perm"; "pad-jitter" ];
          vote = Config.Majority;
          forensics = true;
        };
  }

let cls =
  {
    Experiment.sf = true;
    co = false;
    ndet = false;
    ddet = true;
    timeout = false;
    t2d = Some 17L;
    cost = 4242L;
    peak_heap = 640;
  }

let entry =
  {
    Job.key = "k\"ey";
    salt = "s\t\001\n\\";
    spec_repr = Job.repr (List.nth pinned_specs 6);
    cls;
  }

let error_frame =
  { Protocol.rrid = 5; reply = Protocol.Error (Protocol.Bad_request, "bad \"x\"\n\031") }

let verdict_frame =
  {
    Protocol.rrid = 6;
    reply =
      Protocol.Verdict
        { Protocol.cls; cached = true; wall_us = 12; vforensics = Some "{\"fate\":\"a\tb\"}" };
  }

(* Recorded from the encoders as they stood before the config codec moved
   into [Config]/[Inject]: cache keys, cache records and wire frames are
   persisted or exchanged with other builds, so these bytes are frozen. *)
let pinned_keys =
  [
    ( "w=art;scale=1;eseed=42;rseed=42;budget=123456;v=golden",
      "0f36b142e50bc4dc" );
    ( "w=bzip2;scale=1;eseed=42;rseed=42;budget=123456;v=fi-stdapp(resize-50@main:entry:3)",
      "4ff9d6df15f29d2e" );
    ( "w=art;scale=1;eseed=42;rseed=42;budget=123456;v=nofi-dpmr(sds,no-diversity,all-loads,42)",
      "f412184a39c9c5ec" );
    ( "w=mcf;scale=1;eseed=42;rseed=42;budget=123456;v=nofi-dpmr(mds,pad-malloc-32,temporal-8080808080808080,42)",
      "4f39a342ef4d4016" );
    ( "w=equake;scale=1;eseed=42;rseed=42;budget=123456;v=fi-dpmr(sds,zero-before-free,static-0x1.999999999999ap-4,42;free@compress:bb3:0)",
      "bacf9c3d96251567" );
    ( "w=art;scale=1;eseed=42;rseed=42;budget=123456;v=fi-dpmr(mds,rearrange-heap,static-0x1p-1,42;off-by-one@f0:loop.body:12)",
      "a6582e1e65a4b3ed" );
    ( "w=art;scale=1;eseed=-1;rseed=9223372036854775807;budget=123456;v=fi-dpmr(sds,pad-alloca-64,temporal-fefefefefefefefe,-7;wild-store-4096@main:bb \"7\":1)",
      "36b6c4a8ddbc323b" );
    ( "w=art;scale=1;eseed=42;rseed=42;budget=123456;v=nofi-dpmr(sds,no-diversity,all-loads,42,n=3,fam=layout-perm+pad-jitter,vote=majority)",
      "76d26e432fcaa063" );
    ( "w=bzip2;scale=1;eseed=42;rseed=42;budget=123456;v=fi-dpmr(sds,pad-malloc-0,all-loads,42,n=2,fam=,vote=any-mismatch;wild-store--8@main:entry:0)",
      "593673a267fe59d3" );
    ( "w=mcf;scale=1;eseed=42;rseed=42;budget=0;v=fi-dpmr(sds,pad-malloc-1024,static-0x1.ccccccccccccdp-1,42;resize-75@main:entry:2)",
      "1cbfaade66c80ebe" );
  ]

let pinned_default_frame =
  "{\"v\":1,\"id\":1,\"t\":\"run\",\"workload\":\"art\",\"scale\":1,\"eseed\":42,\"rseed\":42,\"budget\":0,\"golden\":false,\"plain\":false,\"kind\":null,\"site\":0,\"mode\":\"sds\",\"diversity\":\"no-diversity\",\"policy\":\"all-loads\",\"cseed\":42,\"forensics\":false}"

let pinned_nversion_frame =
  "{\"v\":1,\"id\":99,\"t\":\"run\",\"workload\":\"bzip2\",\"scale\":1,\"eseed\":42,\"rseed\":42,\"budget\":0,\"golden\":false,\"plain\":false,\"kind\":\"resize-50\",\"site\":0,\"sfunc\":\"main\",\"sblock\":\"bb \\\"7\\\"\\t\",\"sidx\":4,\"mode\":\"mds\",\"diversity\":\"pad-alloca-16\",\"policy\":\"static-0x1p-2\",\"cseed\":42,\"replicas\":3,\"families\":\"layout-perm+pad-jitter\",\"vote\":\"majority\",\"forensics\":true}"

let pinned_entry =
  "{\"key\":\"k\\\"ey\",\"salt\":\"s\\t\\u0001\\n\\\\\",\"spec\":\"w=art;scale=1;eseed=-1;rseed=9223372036854775807;budget=123456;v=fi-dpmr(sds,pad-alloca-64,temporal-fefefefefefefefe,-7;wild-store-4096@main:bb \\\"7\\\":1)\",\"sf\":true,\"co\":false,\"ndet\":false,\"ddet\":true,\"timeout\":false,\"t2d\":17,\"cost\":4242,\"peak_heap\":640}"

let pinned_error_frame =
  "{\"v\":1,\"id\":5,\"t\":\"error\",\"code\":\"bad-request\",\"msg\":\"bad \\\"x\\\"\\n\\u001f\"}"

let pinned_verdict_frame =
  "{\"v\":1,\"id\":6,\"t\":\"verdict\",\"sf\":true,\"co\":false,\"ndet\":false,\"ddet\":true,\"timeout\":false,\"t2d\":17,\"cost\":4242,\"peak_heap\":640,\"cached\":true,\"wall_us\":12,\"forensics\":\"{\\\"fate\\\":\\\"a\\tb\\\"}\"}"

let test_pinned_job_bytes () =
  List.iter2
    (fun s (repr, hash) ->
      Alcotest.(check string) "Job.repr" repr (Job.repr s);
      Alcotest.(check string) ("Job.hash of " ^ repr) hash (Job.hash s))
    pinned_specs pinned_keys

let test_pinned_record_and_wire_bytes () =
  Alcotest.(check string) "default run frame" pinned_default_frame
    (Protocol.encode_request default_frame);
  Alcotest.(check string) "N-version run frame" pinned_nversion_frame
    (Protocol.encode_request nversion_frame);
  Alcotest.(check string) "cache record" pinned_entry (Job.entry_to_line entry);
  Alcotest.(check string) "error frame" pinned_error_frame
    (Protocol.encode_response error_frame);
  Alcotest.(check string) "verdict frame" pinned_verdict_frame
    (Protocol.encode_response verdict_frame)

(* ---- the codec round-trips ---- *)

let gen_mode = QCheck.Gen.oneofl [ Config.Sds; Config.Mds ]

let gen_diversity =
  QCheck.Gen.(
    oneof
      [
        return Config.No_diversity;
        return Config.Zero_before_free;
        return Config.Rearrange_heap;
        map (fun n -> Config.Pad_malloc n) (int_range 0 4096);
        map (fun n -> Config.Pad_alloca n) (int_range 0 4096);
      ])

let gen_policy =
  QCheck.Gen.(
    oneof
      [
        return Config.All_loads;
        map (fun m -> Config.Temporal m) ui64;
        map (fun f -> Config.Static f) (float_bound_inclusive 1.);
      ])

let gen_families =
  QCheck.Gen.(
    map
      (List.filter_map (fun (f, keep) -> if keep then Some f else None))
      (flatten_l
         (List.map
            (fun f -> map (fun b -> (f, b)) bool)
            (Dpmr_core.Diversity_family.names ()))))

let gen_vote = QCheck.Gen.oneofl [ Config.Any_mismatch; Config.Majority ]
let gen_replicas = QCheck.Gen.int_range 1 Config.max_replicas

let gen_config =
  QCheck.Gen.(
    gen_mode >>= fun mode ->
    gen_diversity >>= fun diversity ->
    gen_policy >>= fun policy ->
    int64 >>= fun seed ->
    oneof [ return 1; gen_replicas ] >>= fun replicas ->
    gen_families >>= fun families ->
    gen_vote >>= fun vote ->
    return { Config.mode; diversity; policy; seed; replicas; families; vote })

(* [c] with one axis re-drawn: pairs that differ in exactly one field
   make the injectivity check below meaningful *)
let gen_neighbour (c : Config.t) =
  QCheck.Gen.(
    oneof
      [
        map (fun mode -> { c with Config.mode }) gen_mode;
        map (fun diversity -> { c with Config.diversity }) gen_diversity;
        map (fun policy -> { c with Config.policy }) gen_policy;
        map (fun seed -> { c with Config.seed }) int64;
        map (fun replicas -> { c with Config.replicas }) gen_replicas;
        map (fun families -> { c with Config.families }) gen_families;
        map (fun vote -> { c with Config.vote }) gen_vote;
      ])

let gen_kind =
  QCheck.Gen.(
    oneof
      [
        map (fun p -> Inject.Heap_array_resize p) (int_range 0 100);
        return Inject.Immediate_free;
        return Inject.Off_by_one;
        map (fun o -> Inject.Wild_store o) (int_range (-65536) 65536);
      ])

let round_trips (c : Config.t) =
  Config.mode_of_name (Config.mode_name c.Config.mode) = Ok c.Config.mode
  && Config.diversity_of_name (Config.diversity_name c.Config.diversity) = Ok c.Config.diversity
  && Config.vote_of_name (Config.vote_name c.Config.vote) = Ok c.Config.vote
  && Config.families_of_atom (Config.families_atom c.Config.families) = c.Config.families
  && Config.check_replicas c.Config.replicas = Ok c.Config.replicas
  &&
  (* bit-exact: a [Static] float must come back with every bit *)
  match (Config.policy_of_atom (Config.policy_atom c.Config.policy), c.Config.policy) with
  | Ok (Config.Static f'), Config.Static f -> Int64.bits_of_float f' = Int64.bits_of_float f
  | Ok p, p0 -> p = p0
  | Error _, _ -> false

let prop_config_round_trip =
  QCheck.Test.make ~name:"codec: every config atom parses back" ~count:500
    (QCheck.make ~print:Config.name gen_config)
    round_trips

let prop_kind_round_trip =
  QCheck.Test.make ~name:"codec: every fault-kind atom parses back" ~count:300
    (QCheck.make ~print:Inject.kind_atom gen_kind)
    (fun k -> Inject.kind_of_atom (Inject.kind_atom k) = Ok k)

let prop_repr_injective =
  QCheck.Test.make ~name:"codec: distinct configs, distinct cache-key reprs" ~count:500
    (QCheck.make
       ~print:(fun (a, b) -> Job.config_repr a ^ " vs " ^ Job.config_repr b)
       QCheck.Gen.(gen_config >>= fun a -> map (fun b -> (a, b)) (gen_neighbour a)))
    (fun (a, b) -> a = b || Job.config_repr a <> Job.config_repr b)

let test_figure_variants_round_trip () =
  List.iter
    (fun (label, d) ->
      Alcotest.(check string) "figure label is the canonical name" label (Config.diversity_name d);
      Alcotest.(check bool) (label ^ " parses back") true
        (Config.diversity_of_name label = Ok d))
    Figures.diversities;
  List.iter
    (fun (label, p) ->
      Alcotest.(check bool) (label ^ " atom parses back") true
        (Config.policy_of_atom (Config.policy_atom p) = Ok p))
    Figures.policies

(* ---- range errors on the wire ---- *)

let replace ~sub ~by s =
  let n = String.length sub in
  let rec go i =
    if String.sub s i n = sub then String.sub s 0 i ^ by ^ String.sub s (i + n) (String.length s - i - n)
    else go (i + 1)
  in
  go 0

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let test_wire_range_errors () =
  List.iter
    (fun (frame, range) ->
      match Protocol.decode_request frame with
      | Error msg -> Alcotest.(check bool) ("error names " ^ range ^ ": " ^ msg) true (contains msg range)
      | Ok _ -> Alcotest.failf "accepted out-of-range frame %s" frame)
    [
      (replace ~sub:"\"cseed\":42" ~by:"\"cseed\":42,\"replicas\":10000000" pinned_default_frame, "1..64");
      (replace ~sub:"\"cseed\":42" ~by:"\"cseed\":42,\"replicas\":0" pinned_default_frame, "1..64");
      (replace ~sub:"no-diversity" ~by:"pad-malloc--64" pinned_default_frame, ">= 0");
      (replace ~sub:"no-diversity" ~by:"pad-alloca--1" pinned_default_frame, ">= 0");
      (replace ~sub:"no-diversity" ~by:"pad-malloc-1000000000" pinned_default_frame, "<= 65536");
      (replace ~sub:"no-diversity" ~by:"pad-alloca-65537" pinned_default_frame, "<= 65536");
      (replace ~sub:"all-loads" ~by:"static-0x1.8p+1" pinned_default_frame, "[0,1]");
      (replace ~sub:"all-loads" ~by:"static-nan" pinned_default_frame, "[0,1]");
      (replace ~sub:"all-loads" ~by:"static--0x1p-1" pinned_default_frame, "[0,1]");
      (replace ~sub:"\"kind\":null" ~by:"\"kind\":\"resize--5\"" pinned_default_frame, "0..100");
    ]

(* ---- the CLI converters ---- *)

let cli = Filename.concat (Filename.dirname Sys.executable_name) "../bin/dpmr_cli.exe"

let read_file f = In_channel.with_open_bin f In_channel.input_all

(* exit status, stdout, stderr *)
let run_cli args =
  let out = Filename.temp_file "dpmr_cli" ".out" and err = Filename.temp_file "dpmr_cli" ".err" in
  Fun.protect
    ~finally:(fun () -> Sys.remove out; Sys.remove err)
    (fun () ->
      let rc = Sys.command (Filename.quote_command cli args ~stdout:out ~stderr:err) in
      (rc, read_file out, read_file err))

let test_cli_aliases () =
  let transform flags =
    match run_cli ([ "transform"; "art" ] @ flags) with
    | 0, out, _ -> out
    | rc, _, err -> Alcotest.failf "transform %s exited %d: %s" (String.concat " " flags) rc err
  in
  List.iter
    (fun (flag, alias, atom) ->
      Alcotest.(check string)
        (Printf.sprintf "%s %s = %s" flag alias atom)
        (transform [ flag; atom ]) (transform [ flag; alias ]))
    [
      ("--diversity", "none", "no-diversity");
      ("--diversity", "pad-16", "pad-malloc-16");
      ("--diversity", "pad-stack-8", "pad-alloca-8");
      ("--policy", "static-50", "static-0x1p-1");
      ("--policy", "temporal-1/8", "temporal-8080808080808080");
      ("--policy", "temporal-7/8", "temporal-fefefefefefefefe");
    ];
  Alcotest.(check bool) "the pad reaches the transform" true
    (transform [ "--diversity"; "pad-malloc-16" ] <> transform [ "--diversity"; "pad-malloc-32" ]);
  (* every --help default is a canonical atom the converter accepts *)
  let _, help, _ = run_cli [ "run"; "--help=plain" ] in
  let defaults =
    [ ("--mode", "sds"); ("--diversity", "no-diversity"); ("--policy", "all-loads");
      ("--vote", "any-mismatch"); ("--replicas", "1") ]
  in
  List.iter
    (fun (_, atom) ->
      Alcotest.(check bool) ("--help shows default " ^ atom) true
        (contains help ("(absent=" ^ atom ^ ")")))
    defaults;
  let run flags =
    match run_cli ([ "run"; "art" ] @ flags) with
    | 0, out, _ -> out
    | rc, _, err -> Alcotest.failf "run exited %d: %s" rc err
  in
  Alcotest.(check string) "explicit defaults = no flags" (run [])
    (run (List.concat_map (fun (f, a) -> [ f; a ]) defaults));
  let _, inject_help, _ = run_cli [ "inject"; "--help=plain" ] in
  Alcotest.(check bool) "--kind default is its atom" true (contains inject_help "(absent=resize-50)")

let test_cli_range_errors () =
  List.iter
    (fun (args, range) ->
      let rc, _, err = run_cli args in
      (* 124: Cmdliner's exit status for a command-line usage error *)
      Alcotest.(check int) (String.concat " " args ^ " is a usage error") 124 rc;
      Alcotest.(check bool) ("stderr names " ^ range ^ ": " ^ err) true (contains err range))
    [
      (* just past the bound: were the check lost, N=65 would still
         finish in well under a second instead of running away *)
      ([ "run"; "art"; "--replicas"; "65" ], "1..64");
      ([ "run"; "art"; "--replicas"; "0" ], "1..64");
      ([ "run"; "mcf"; "--diversity"; "pad--64" ], ">= 0");
      ([ "run"; "mcf"; "--diversity"; "pad-malloc--64" ], ">= 0");
      (* were the ceiling lost, this pad would grow the simulated heap
         until the host ran out of memory *)
      ([ "run"; "mcf"; "--diversity"; "pad-malloc-1000000000" ], "<= 65536");
      ([ "run"; "mcf"; "--diversity"; "pad-stack-65537" ], "<= 65536");
      ([ "run"; "art"; "--policy"; "static-150" ], "[0,1]");
      ([ "run"; "art"; "--policy"; "static-0x1.8p+1" ], "[0,1]");
      ([ "run"; "art"; "--diversity"; "pad-malloc-16"; "--policy"; "static-nan" ], "[0,1]");
      ([ "inject"; "art"; "--kind"; "resize--5" ], "0..100");
      ([ "inject"; "art"; "--kind"; "resize-101" ], "0..100");
    ]

(* ---- error-free runs stay error-free across the pad range ---- *)

let mcf = lazy ((Workloads.find "mcf").Workloads.build ~scale:1 ())
let mcf_golden = lazy (Dpmr.run_plain ~seed:42L (Lazy.force mcf))

let pad_cfg mode n ~stack =
  let diversity = if stack then Config.Pad_alloca n else Config.Pad_malloc n in
  { Config.default with Config.mode; diversity }

let runs_error_free cfg =
  let r = Dpmr.run_dpmr ~seed:42L cfg (Lazy.force mcf) in
  r.Outcome.outcome = Outcome.Normal
  && r.Outcome.output = (Lazy.force mcf_golden).Outcome.output

let prop_pads_error_free =
  QCheck.Test.make ~name:"codec: every in-range pad runs mcf error-free" ~count:24
    (QCheck.make
       ~print:(fun c -> Config.name c)
       QCheck.Gen.(map3 (fun mode n stack -> pad_cfg mode n ~stack) gen_mode (int_range 0 64) bool))
    runs_error_free

(* the fixed case at the top of the range, under both modes *)
let test_max_pad_error_free () =
  Alcotest.(check int) "the ceiling" 65536 Config.max_pad;
  List.iter
    (fun (mode, stack) ->
      let cfg = pad_cfg mode Config.max_pad ~stack in
      Alcotest.(check bool) (Config.name cfg ^ " runs mcf error-free") true (runs_error_free cfg);
      Alcotest.(check bool) (Config.name cfg ^ " parses") true
        (Config.diversity_of_name (Config.diversity_name cfg.Config.diversity)
        = Ok cfg.Config.diversity))
    [ (Config.Sds, false); (Config.Mds, false); (Config.Sds, true); (Config.Mds, true) ]

let suites =
  [
    ( "codec",
      [
        Alcotest.test_case "pinned cache keys" `Quick test_pinned_job_bytes;
        Alcotest.test_case "pinned records and frames" `Quick
          test_pinned_record_and_wire_bytes;
        Alcotest.test_case "figure variants round-trip" `Quick test_figure_variants_round_trip;
        Alcotest.test_case "wire range errors" `Quick test_wire_range_errors;
        Alcotest.test_case "CLI aliases and defaults" `Quick test_cli_aliases;
        Alcotest.test_case "CLI range errors" `Quick test_cli_range_errors;
      ] );
    ( "codec-properties",
      List.map QCheck_alcotest.to_alcotest
        [ prop_config_round_trip; prop_kind_round_trip; prop_repr_injective; prop_pads_error_free ]
      @ [ Alcotest.test_case "codec: max_pad runs mcf error-free" `Quick test_max_pad_error_free ] );
  ]
