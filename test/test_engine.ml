(* Parallel experiment engine tests (lib/engine): job hashing, the jsonl
   cache codec, classification edge cases, determinism of the domain
   pool, content-addressed cache behaviour (hits, stale-salt eviction,
   clearing), and crash durability (CRC framing, torn-tail recovery,
   periodic flush, kill-and-resume). *)

module Config = Dpmr_core.Config
module Outcome = Dpmr_vm.Outcome
module Experiment = Dpmr_fi.Experiment
module Inject = Dpmr_fi.Inject
module Job = Dpmr_engine.Job
module Cache = Dpmr_engine.Cache
module Chaos = Dpmr_engine.Chaos
module Pool = Dpmr_engine.Pool
module Engine = Dpmr_engine.Engine
module Progs = Dpmr_testprogs.Progs
module Workloads = Dpmr_workloads.Workloads

(* ---- shared fixtures ---- *)

(* cheap registry workload: every engine job must name a registry entry *)
let app = "mcf"

let exp_ctx =
  lazy
    (let entry = Workloads.find app in
     Experiment.make
       (Experiment.workload app (fun () -> entry.Workloads.build ~scale:1 ())))

let specs_fixture () =
  let e = Lazy.force exp_ctx in
  let mk = Job.make e ~workload:app ~scale:1 ~run_seed:42L in
  let fi =
    List.concat_map
      (fun kind ->
        List.map
          (fun site -> mk (Experiment.Fi_dpmr (Config.default, kind, site)))
          (Experiment.sites e kind))
      [ Inject.Heap_array_resize 50; Inject.Immediate_free ]
  in
  mk Experiment.Golden :: mk (Experiment.Nofi_dpmr Config.default) :: fi

let check_cls = Alcotest.testable
    (fun ppf (c : Experiment.classification) ->
      Fmt.string ppf
        (Job.entry_to_line { Job.key = ""; salt = ""; spec_repr = ""; cls = c }))
    ( = )

(* ---- job model ---- *)

let test_hash_stable_and_salted () =
  let spec = List.hd (specs_fixture ()) in
  Alcotest.(check string) "hash is deterministic" (Job.hash spec) (Job.hash spec);
  Alcotest.(check bool) "different salt, different hash" true
    (Job.hash spec <> Job.hash ~salt:"other-code-version" spec);
  let other = { spec with Job.run_seed = 43L } in
  Alcotest.(check bool) "different spec, different hash" true
    (Job.hash spec <> Job.hash other)

let test_jsonl_roundtrip () =
  let cls t2d =
    {
      Experiment.sf = true;
      co = false;
      ndet = false;
      ddet = true;
      timeout = false;
      t2d;
      cost = 123456789L;
      peak_heap = 4096;
    }
  in
  List.iter
    (fun t2d ->
      let e =
        {
          Job.key = "00ff";
          salt = Job.default_salt;
          spec_repr = "w=\"quoted\";\ttab";
          cls = cls t2d;
        }
      in
      match Job.entry_of_line (Job.entry_to_line e) with
      | Some e' ->
          Alcotest.(check string) "key" e.Job.key e'.Job.key;
          Alcotest.(check string) "salt" e.Job.salt e'.Job.salt;
          Alcotest.(check string) "spec" e.Job.spec_repr e'.Job.spec_repr;
          Alcotest.check check_cls "classification" e.Job.cls e'.Job.cls
      | None -> Alcotest.fail "round-trip parse failed")
    [ Some 99L; None ];
  Alcotest.(check bool) "corrupt line rejected" true
    (Job.entry_of_line "{\"key\":\"x\" garbage" = None)

(* ---- Experiment.classify edge cases ---- *)

let classify_exp =
  lazy (Experiment.make (Experiment.workload "t" (fun () -> Progs.overflow ~limit:8 ())))

let synthetic ?(outcome = Outcome.Normal) ?output ?(cost = 1000L) ?fi_first_cost () =
  let e = Lazy.force classify_exp in
  {
    Outcome.outcome;
    cost;
    output = Option.value output ~default:e.Experiment.golden.Outcome.output;
    peak_heap_bytes = 100;
    mapped_pages = 1;
    fi_first_cost;
  }

let test_classify_timeout () =
  let e = Lazy.force classify_exp in
  let c =
    Experiment.classify e
      (synthetic ~outcome:Outcome.Timeout ~output:"partial" ~fi_first_cost:10L ())
  in
  Alcotest.(check bool) "timeout flagged" true c.Experiment.timeout;
  Alcotest.(check bool) "not CO" false c.Experiment.co;
  Alcotest.(check bool) "no natural detection" false c.Experiment.ndet;
  Alcotest.(check bool) "no DPMR detection" false c.Experiment.ddet;
  Alcotest.(check bool) "SF recorded" true c.Experiment.sf

let test_classify_ddet_without_fi () =
  (* a DPMR check fired before (or without) any injected code running:
     detection stands, but T2D is undefined *)
  let e = Lazy.force classify_exp in
  let c =
    Experiment.classify e (synthetic ~outcome:(Outcome.Dpmr_detect "check 0") ~output:"" ())
  in
  Alcotest.(check bool) "ddet" true c.Experiment.ddet;
  Alcotest.(check bool) "not sf" false c.Experiment.sf;
  Alcotest.(check bool) "t2d undefined" true (c.Experiment.t2d = None)

let test_classify_app_exit_correct_output () =
  (* nonzero exit with byte-identical output: not CO (exit status is part
     of correctness), counted as natural detection *)
  let e = Lazy.force classify_exp in
  let c = Experiment.classify e (synthetic ~outcome:(Outcome.App_exit 3) ()) in
  Alcotest.(check bool) "not CO" false c.Experiment.co;
  Alcotest.(check bool) "natural detection" true c.Experiment.ndet;
  Alcotest.(check bool) "no DPMR detection" false c.Experiment.ddet

let test_classify_normal_correct () =
  let e = Lazy.force classify_exp in
  let c = Experiment.classify e (synthetic ~fi_first_cost:5L ()) in
  Alcotest.(check bool) "CO" true c.Experiment.co;
  Alcotest.(check bool) "no detections" true
    ((not c.Experiment.ndet) && not c.Experiment.ddet)

(* ---- pool ---- *)

let test_pool_order_and_exception () =
  let xs = List.init 64 Fun.id in
  Alcotest.(check (list int)) "results in input order"
    (List.map (fun x -> x * x) xs)
    (Pool.map ~jobs:4 (fun x -> x * x) xs);
  Alcotest.check_raises "exception re-raised" Exit (fun () ->
      ignore (Pool.map ~jobs:3 (fun x -> if x = 5 then raise Exit else x) xs))

let test_pool_map_results_per_slot () =
  (* one element failing keeps every other slot's result; the failing
     slot carries the exception instead of poisoning the batch *)
  List.iter
    (fun jobs ->
      let xs = List.init 16 Fun.id in
      let rs = Pool.map_results ~jobs (fun x -> if x mod 5 = 3 then raise Exit else x * 2) xs in
      Alcotest.(check int) "one result per input" 16 (List.length rs);
      List.iteri
        (fun i r ->
          match r with
          | Ok v ->
              Alcotest.(check bool) "slot should have failed" true (i mod 5 <> 3);
              Alcotest.(check int) "value" (i * 2) v
          | Error (e, _bt) ->
              Alcotest.(check bool) "slot should have succeeded" true (i mod 5 = 3);
              Alcotest.(check bool) "original exception kept" true (e = Exit))
        rs)
    [ 1; 4 ]

(* ---- determinism guard: serial vs multi-domain ---- *)

let lines_of cs =
  List.map (fun c -> Job.entry_to_line { Job.key = ""; salt = ""; spec_repr = ""; cls = c }) cs

let test_parallel_determinism () =
  let specs = specs_fixture () in
  let serial = Engine.create ~jobs:1 ~use_cache:false ~progress:false () in
  let parallel = Engine.create ~jobs:4 ~use_cache:false ~progress:false () in
  let a = Engine.run_specs serial specs in
  let b = Engine.run_specs parallel specs in
  Alcotest.(check (list string)) "serial and 4-domain runs byte-identical"
    (lines_of a) (lines_of b)

(* every cache miss runs as its own job: a batch mixing every variant
   class over one cell's sites, on two domains, must classify exactly
   like serial from-zero runs, position by position *)
let test_mixed_batch_matches_run_variant () =
  let e = Lazy.force exp_ctx in
  let kind = Inject.Immediate_free in
  let cfg = Config.default in
  let variants =
    Experiment.Golden
    :: Experiment.Nofi_dpmr cfg
    :: List.concat_map
         (fun site -> [ Experiment.Fi_stdapp (kind, site); Experiment.Fi_dpmr (cfg, kind, site) ])
         (Experiment.sites e kind)
  in
  let specs = List.map (Job.make e ~workload:app ~scale:1 ~run_seed:e.Experiment.seed) variants in
  let engine = Engine.create ~jobs:2 ~use_cache:false ~progress:false () in
  let got = Engine.run_specs engine specs in
  Engine.close engine;
  Alcotest.(check (list string)) "2-domain batch = serial run_variant"
    (lines_of (List.map (Experiment.run_variant e) variants))
    (lines_of got)

(* ---- content-addressed cache ---- *)

let test_dir = "_engine_test_cache"

(* chaos is pinned off here: these tests assert exact hit/miss/added
   counts, which deliberate fault injection would perturb *)
let with_clean_dir f =
  Chaos.with_chaos None (fun () ->
      ignore (Cache.clear ~dir:test_dir ());
      Fun.protect ~finally:(fun () -> ignore (Cache.clear ~dir:test_dir ())) f)

let test_cache_hits_second_run () =
  with_clean_dir (fun () ->
      let specs = specs_fixture () in
      let e1 = Engine.create ~jobs:1 ~cache_dir:test_dir ~progress:false () in
      let a = Engine.run_specs e1 specs in
      let s1 = Option.get (Engine.cache_stats e1) in
      Alcotest.(check int) "first run: all misses" (List.length specs) s1.Cache.misses;
      Alcotest.(check int) "first run: all persisted" (List.length specs) s1.Cache.added;
      let e2 = Engine.create ~jobs:1 ~cache_dir:test_dir ~progress:false () in
      let b = Engine.run_specs e2 specs in
      let s2 = Option.get (Engine.cache_stats e2) in
      Alcotest.(check int) "second run: all hits" (List.length specs) s2.Cache.hits;
      Alcotest.(check int) "second run: no misses" 0 s2.Cache.misses;
      Alcotest.(check (list string)) "cached results identical" (lines_of a) (lines_of b))

let test_cache_stale_salt_misses () =
  with_clean_dir (fun () ->
      let specs = specs_fixture () in
      let e1 = Engine.create ~jobs:1 ~cache_dir:test_dir ~salt:"code-v1" ~progress:false () in
      ignore (Engine.run_specs e1 specs);
      (* same specs under a bumped code-version salt: nothing may be
         served, and loading evicts every stale line *)
      let e2 = Engine.create ~jobs:1 ~cache_dir:test_dir ~salt:"code-v2" ~progress:false () in
      ignore (Engine.run_specs e2 specs);
      let s2 = Option.get (Engine.cache_stats e2) in
      Alcotest.(check int) "stale salt: zero hits" 0 s2.Cache.hits;
      Alcotest.(check int) "stale lines evicted on load" (List.length specs) s2.Cache.evicted;
      (* and the rewritten file now only holds code-v2 entries *)
      let d = Cache.disk_stats ~dir:test_dir ~salt:"code-v2" () in
      Alcotest.(check int) "compacted to current salt" d.Cache.total d.Cache.current)

let test_cache_clear () =
  with_clean_dir (fun () ->
      let specs = specs_fixture () in
      let e1 = Engine.create ~jobs:1 ~cache_dir:test_dir ~progress:false () in
      ignore (Engine.run_specs e1 specs);
      Alcotest.(check int) "clear reports entry count" (List.length specs)
        (Cache.clear ~dir:test_dir ());
      let d = Cache.disk_stats ~dir:test_dir ~salt:Job.default_salt () in
      Alcotest.(check int) "empty after clear" 0 d.Cache.total)

(* ---- compatibility with caches written by snapshot/fork versions ---- *)

(* Earlier versions forked fault-injection runs from copy-on-write
   snapshots and wrote, beside each forked run's record (which carried a
   "snap" field), a sidecar record under a fork key with a "fork:" spec.
   A directory holding such lines must still load, serve every primary
   record, verify clean, and never count the sidecars as added. *)

let fnv1a64 str =
  String.fold_left
    (fun h c -> Int64.mul (Int64.logxor h (Int64.of_int (Char.code c))) 0x100000001b3L)
    0xcbf29ce484222325L str

(* CRC-32 (IEEE), the cache's line frame *)
let crc32 s =
  let crc = ref 0xFFFFFFFF in
  String.iter
    (fun c ->
      crc := !crc lxor Char.code c;
      for _ = 1 to 8 do
        crc := if !crc land 1 = 1 then (!crc lsr 1) lxor 0xEDB88320 else !crc lsr 1
      done)
    s;
  !crc lxor 0xFFFFFFFF

let framed payload =
  Printf.sprintf "{\"crc\":\"%08x\",%s" (crc32 payload)
    (String.sub payload 1 (String.length payload - 1))

(* a record line as the snapshot/fork versions wrote it: the "snap"
   field sat between the spec and the classification *)
let old_line ~key ~spec_repr ?snap cls =
  let line = Job.entry_to_line { Job.key; salt = Job.default_salt; spec_repr; cls } in
  match snap with
  | None -> line
  | Some h ->
      let rec at i = if String.sub line i 6 = ",\"sf\":" then i + 1 else at (i + 1) in
      let at = at 0 in
      String.sub line 0 at ^ Printf.sprintf "\"snap\":\"%s\"," h
      ^ String.sub line at (String.length line - at)

let test_cache_loads_fork_records () =
  with_clean_dir (fun () ->
      let specs = specs_fixture () in
      let e0 = Engine.create ~jobs:1 ~use_cache:false ~progress:false () in
      let a = Engine.run_specs e0 specs in
      Engine.close e0;
      (try Sys.mkdir test_dir 0o755 with Sys_error _ -> ());
      let append key line =
        Out_channel.with_open_gen [ Open_append; Open_creat; Open_wronly ] 0o644
          (Cache.shard_file test_dir (Cache.shard_of_key key))
          (fun oc -> Out_channel.output_string oc (framed line ^ "\n"))
      in
      let forks = ref 0 in
      List.iteri
        (fun i (spec, cls) ->
          let key = Job.hash spec and repr = Job.repr spec in
          match spec.Job.variant with
          | Experiment.Fi_dpmr _ ->
              let snap = Printf.sprintf "%016x" (i * 7919) in
              let fkey =
                Printf.sprintf "%016Lx"
                  (fnv1a64 (Printf.sprintf "%s\x00snap=%s;%s" Job.default_salt snap repr))
              in
              append key (old_line ~key ~spec_repr:repr ~snap cls);
              append fkey (old_line ~key:fkey ~spec_repr:("fork:" ^ repr) ~snap cls);
              incr forks
          | _ -> append key (old_line ~key ~spec_repr:repr cls))
        (List.combine specs a);
      Alcotest.(check bool) "the directory holds fork records" true (!forks > 0);
      let e1 = Engine.create ~jobs:1 ~cache_dir:test_dir ~progress:false () in
      let b = Engine.run_specs e1 specs in
      let s1 = Option.get (Engine.cache_stats e1) in
      Engine.close e1;
      Alcotest.(check int) "every primary key hits" (List.length specs) s1.Cache.hits;
      Alcotest.(check int) "no misses" 0 s1.Cache.misses;
      Alcotest.(check (list string)) "served results identical" (lines_of a) (lines_of b);
      Alcotest.(check int) "fork records not counted as added" 0 s1.Cache.added;
      Alcotest.(check int) "no forked records" 0 s1.Cache.forked;
      let d = Cache.disk_stats ~dir:test_dir ~salt:Job.default_salt () in
      Alcotest.(check int) "verify: no damaged lines" 0 d.Cache.damaged;
      Alcotest.(check bool) "verify: no torn tail" false d.Cache.torn_tail;
      Alcotest.(check int) "fork records kept as index entries"
        (List.length specs + !forks) d.Cache.current)

(* ---- crash durability: corruption recovery, flush, resume ---- *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

(* the cache shards records over results-<x>.jsonl by hash prefix: the
   corruption tests damage a shard file that actually holds records *)
let nonempty_shards () =
  List.filter
    (fun p -> Sys.file_exists p && read_file p <> "")
    (List.init Cache.shard_count (Cache.shard_file test_dir))

(** Fill the test cache through a real engine run; returns the specs and
    their results. *)
let populate () =
  let specs = specs_fixture () in
  let e = Engine.create ~jobs:1 ~cache_dir:test_dir ~progress:false () in
  let rs = Engine.run_specs e specs in
  (specs, rs)

let reload () = Cache.load ~dir:test_dir ~salt:Job.default_salt ()

let check_repaired ~survivors =
  (* loading damage repairs the file in place (atomic compaction): a
     second scan must be clean and hold exactly the survivors *)
  let d = Cache.disk_stats ~dir:test_dir ~salt:Job.default_salt () in
  Alcotest.(check int) "repaired: no damaged lines" 0 d.Cache.damaged;
  Alcotest.(check bool) "repaired: clean tail" false d.Cache.torn_tail;
  Alcotest.(check int) "repaired: survivors intact" survivors d.Cache.total

let test_cache_torn_tail () =
  with_clean_dir (fun () ->
      let specs, _ = populate () in
      let n = List.length specs in
      let path = List.hd (nonempty_shards ()) in
      let s = read_file path in
      (* crash mid-append: the shard's final record loses its last bytes
         and its newline *)
      write_file path (String.sub s 0 (String.length s - 9));
      let c = reload () in
      Alcotest.(check int) "torn record dropped" (n - 1) (Cache.entries c);
      Alcotest.(check int) "torn tail counted" 1 (Cache.stats c).Cache.damaged;
      Cache.close c;
      check_repaired ~survivors:(n - 1))

let test_cache_garbage_line () =
  with_clean_dir (fun () ->
      let specs, _ = populate () in
      let n = List.length specs in
      let path = List.hd (nonempty_shards ()) in
      (match String.split_on_char '\n' (read_file path) with
      | first :: rest ->
          write_file path (String.concat "\n" (first :: "#### not a record ####" :: rest))
      | [] -> Alcotest.fail "empty cache file");
      let c = reload () in
      Alcotest.(check int) "all real records survive" n (Cache.entries c);
      Alcotest.(check int) "garbage counted" 1 (Cache.stats c).Cache.damaged;
      Cache.close c;
      check_repaired ~survivors:n)

let test_cache_crc_mismatch () =
  with_clean_dir (fun () ->
      let specs, _ = populate () in
      let n = List.length specs in
      let path = List.hd (nonempty_shards ()) in
      let b = Bytes.of_string (read_file path) in
      (* single byte flip inside the first record's payload: the line
         stays structurally plausible, only the CRC can catch it *)
      let pos = 25 in
      Bytes.set b pos (if Bytes.get b pos = 'x' then 'y' else 'x');
      write_file path (Bytes.to_string b);
      let c = reload () in
      Alcotest.(check int) "flipped record dropped" (n - 1) (Cache.entries c);
      Alcotest.(check int) "crc mismatch counted" 1 (Cache.stats c).Cache.damaged;
      (* a damaged record is a miss, never a wrong result *)
      let missed = ref 0 in
      List.iter
        (fun spec ->
          if Cache.find c (Job.hash ~salt:Job.default_salt spec) = None then incr missed)
        specs;
      Alcotest.(check int) "exactly one lookup degraded to a miss" 1 !missed;
      Cache.close c;
      check_repaired ~survivors:(n - 1))

let test_cache_random_corruption =
  (* any byte-level corruption anywhere in the file: load never raises,
     never over-counts survivors, and always repairs to a clean file *)
  QCheck.Test.make ~name:"cache: random corruption always recovered" ~count:40
    QCheck.(pair small_nat small_nat)
    (fun (pos, cut) ->
      Chaos.with_chaos None (fun () ->
          ignore (Cache.clear ~dir:test_dir ());
          Fun.protect ~finally:(fun () -> ignore (Cache.clear ~dir:test_dir ()))
            (fun () ->
              let specs, _ = populate () in
              let n = List.length specs in
              let shards = nonempty_shards () in
              let path = List.nth shards (pos mod List.length shards) in
              let pristine = read_file path in
              let len = String.length pristine in
              let pos = pos mod len in
              let cut = min (1 + cut) (len - pos) in
              let b = Bytes.of_string pristine in
              Bytes.fill b pos cut 'Z';
              write_file path (Bytes.to_string b);
              let c = reload () in
              let survivors = Cache.entries c in
              Cache.close c;
              let d = Cache.disk_stats ~dir:test_dir ~salt:Job.default_salt () in
              survivors <= n && d.Cache.damaged = 0 && (not d.Cache.torn_tail)
              && d.Cache.total = survivors)))

let test_cache_flush_every () =
  with_clean_dir (fun () ->
      let cls =
        {
          Experiment.sf = true; co = false; ndet = false; ddet = true;
          timeout = false; t2d = Some 7L; cost = 1L; peak_heap = 0;
        }
      in
      let c = Cache.load ~dir:test_dir ~flush_every:2 ~salt:"s" () in
      List.iter
        (fun k -> Cache.add c ~key:k ~spec_repr:"r" cls)
        [ "k1"; "k2"; "k3"; "k4"; "k5" ];
      (* no close, no explicit flush: everything up to the last periodic
         flush must already be on disk — that is what an interrupted
         campaign resumes from *)
      let d = Cache.disk_stats ~dir:test_dir ~salt:"s" () in
      Alcotest.(check bool) "flushed prefix on disk"
        true (d.Cache.current >= 4);
      Cache.close c)

let test_kill_and_resume () =
  with_clean_dir (fun () ->
      let specs, a = populate () in
      (* simulate dying mid-append after the run's flush: a torn
         half-record with no terminating newline on one shard *)
      let path = List.hd (nonempty_shards ()) in
      let oc = open_out_gen [ Open_append ] 0o644 path in
      output_string oc "{\"crc\":\"00000000\",\"key\":\"torn";
      close_out oc;
      let e2 = Engine.create ~jobs:1 ~cache_dir:test_dir ~progress:false () in
      let b = Engine.run_specs e2 specs in
      let s2 = Option.get (Engine.cache_stats e2) in
      Alcotest.(check bool) "resume serves the flushed prefix" true (s2.Cache.hits > 0);
      Alcotest.(check int) "torn tail counted, not fatal" 1 s2.Cache.damaged;
      Alcotest.(check (list string)) "resumed results byte-identical" (lines_of a)
        (lines_of b))

let test_batch_dedup () =
  (* identical specs inside one batch execute once even without a cache *)
  let spec = List.hd (specs_fixture ()) in
  let engine = Engine.create ~jobs:1 ~use_cache:false ~progress:false () in
  let rs = Engine.run_specs engine [ spec; spec; spec ] in
  Alcotest.(check int) "three answers" 3 (List.length rs);
  Alcotest.(check int) "one execution" 1 (Engine.telemetry engine).Dpmr_engine.Telemetry.jobs_run

let suites =
  [
    ( "engine",
      [
        Alcotest.test_case "job hash stable and salt-sensitive" `Quick
          test_hash_stable_and_salted;
        Alcotest.test_case "cache line jsonl round-trip" `Quick test_jsonl_roundtrip;
        Alcotest.test_case "classify: timeout" `Quick test_classify_timeout;
        Alcotest.test_case "classify: DPMR detect without SF" `Quick
          test_classify_ddet_without_fi;
        Alcotest.test_case "classify: app-exit with correct output" `Quick
          test_classify_app_exit_correct_output;
        Alcotest.test_case "classify: normal correct run" `Quick test_classify_normal_correct;
        Alcotest.test_case "pool: ordering and exceptions" `Quick
          test_pool_order_and_exception;
        Alcotest.test_case "pool: per-slot results survive a failing slot" `Quick
          test_pool_map_results_per_slot;
        Alcotest.test_case "determinism: serial vs 4 domains" `Quick
          test_parallel_determinism;
        Alcotest.test_case "engine: mixed batch = serial run_variant" `Quick
          test_mixed_batch_matches_run_variant;
        Alcotest.test_case "cache: second run all hits" `Quick test_cache_hits_second_run;
        Alcotest.test_case "cache: stale code-version salt misses" `Quick
          test_cache_stale_salt_misses;
        Alcotest.test_case "cache: clear" `Quick test_cache_clear;
        Alcotest.test_case "cache: loads fork records of snapshot versions" `Quick
          test_cache_loads_fork_records;
        Alcotest.test_case "cache: torn tail dropped and repaired" `Quick
          test_cache_torn_tail;
        Alcotest.test_case "cache: garbage line dropped, records kept" `Quick
          test_cache_garbage_line;
        Alcotest.test_case "cache: CRC mismatch degrades to one miss" `Quick
          test_cache_crc_mismatch;
        QCheck_alcotest.to_alcotest test_cache_random_corruption;
        Alcotest.test_case "cache: periodic flush persists without close" `Quick
          test_cache_flush_every;
        Alcotest.test_case "cache: kill and resume serves flushed prefix" `Quick
          test_kill_and_resume;
        Alcotest.test_case "batch dedup of identical specs" `Quick test_batch_dedup;
      ] );
  ]
