(* Concurrent access to the sharded result cache (lib/engine/cache):

   - two OS processes appending to the same cache directory at once
     (the federation the daemon and batch runs rely on): every record
     survives intact — no torn frames, [disk_stats] clean, and a fresh
     load sees the union of both writers;
   - two domains of one process hammering one [Cache.t]: adds and
     lookups stay consistent under the per-shard locks;
   - sharding invariant: keys land in their hash shard. *)

module Experiment = Dpmr_fi.Experiment
module Cache = Dpmr_engine.Cache
module Job = Dpmr_engine.Job
module Chaos = Dpmr_engine.Chaos

let salt = "test-salt/concurrent"

let in_tmp_dir f =
  let dir = Filename.temp_file "dpmr_cache_test" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  f dir

let cls i =
  {
    Experiment.sf = i mod 2 = 0;
    co = false;
    ndet = false;
    ddet = i mod 3 = 0;
    timeout = false;
    t2d = (if i mod 2 = 0 then Some (Int64.of_int (i * 17)) else None);
    cost = Int64.of_int (1000 + i);
    peak_heap = 64 + i;
  }

(* distinct, hash-shaped keys: 16 hex digits, spread over all shards *)
let key_of ~writer i = Printf.sprintf "%x%07x%08x" (i mod 16) writer i

(* chaos is pinned off in the fixture writers: these tests assert that
   no record is torn, which deliberate torn-append injection would
   defeat (torn writes are covered in test_engine) *)
let writer_loop dir ~writer ~n =
  Chaos.with_chaos None @@ fun () ->
  let c = Cache.load ~dir ~flush_every:7 ~salt () in
  for i = 0 to n - 1 do
    Cache.add c ~key:(key_of ~writer i)
      ~spec_repr:(Printf.sprintf "writer=%d i=%d" writer i)
      (cls i)
  done;
  Cache.close c

let test_two_processes () =
  in_tmp_dir @@ fun dir ->
  let n = 400 in
  (* a sibling OS process (Unix.fork is forbidden once other suites have
     spawned domains) appends writer 1's records while this process
     writes writer 0's — cache_writer.ml keeps cls/key_of in lockstep *)
  let exe = Filename.concat (Filename.dirname Sys.executable_name) "cache_writer.exe" in
  let pid =
    Unix.create_process exe
      [| exe; dir; "1"; string_of_int n |]
      Unix.stdin Unix.stdout Unix.stderr
  in
  writer_loop dir ~writer:0 ~n;
  let _, status = Unix.waitpid [] pid in
  Alcotest.(check bool) "sibling writer exited cleanly" true
    (status = Unix.WEXITED 0);
  (* every line on disk is intact: no torn frames, no CRC damage *)
  let s = Cache.disk_stats ~dir ~salt () in
  Alcotest.(check int) "no damaged lines" 0 s.Cache.damaged;
  Alcotest.(check bool) "no torn tail" false s.Cache.torn_tail;
  Alcotest.(check int) "all records intact on disk" (2 * n) s.Cache.total;
  Alcotest.(check int) "all records current" (2 * n) s.Cache.current;
  (* a fresh load serves the union of both writers *)
  let c = Cache.load ~dir ~salt () in
  Alcotest.(check int) "union loaded" (2 * n) (Cache.entries c);
  for i = 0 to n - 1 do
    for writer = 0 to 1 do
      match Cache.find c (key_of ~writer i) with
      | Some got ->
          if got <> cls i then
            Alcotest.failf "writer %d key %d: wrong classification" writer i
      | None -> Alcotest.failf "writer %d key %d: record lost" writer i
    done
  done;
  Cache.close c

let test_two_domains_one_cache () =
  in_tmp_dir @@ fun dir ->
  let c = Cache.load ~dir ~salt () in
  let n = 500 in
  let worker writer () =
    for i = 0 to n - 1 do
      Cache.add c ~key:(key_of ~writer i) ~spec_repr:"d" (cls i);
      (* interleave lookups of both writers' keys: readers under the
         shard locks while the other domain appends *)
      ignore (Cache.find c (key_of ~writer:(1 - writer) i))
    done
  in
  Chaos.with_chaos None (fun () ->
      let d = Domain.spawn (worker 1) in
      worker 0 ();
      Domain.join d);
  Alcotest.(check int) "all adds visible" (2 * n) (Cache.entries c);
  Cache.close c;
  let s = Cache.disk_stats ~dir ~salt () in
  Alcotest.(check int) "no damage from concurrent domains" 0 s.Cache.damaged;
  Alcotest.(check int) "every record persisted" (2 * n) s.Cache.total

let test_shard_placement () =
  in_tmp_dir @@ fun dir ->
  let c = Cache.load ~dir ~salt () in
  List.iter
    (fun k -> Cache.add c ~key:k ~spec_repr:"p" (cls 1))
    [ "0aaaaaaaaaaaaaaa"; "7bbbbbbbbbbbbbbb"; "fccccccccccccccc" ];
  Cache.close c;
  List.iter
    (fun (k, shard) ->
      Alcotest.(check int) (k ^ " shard index") shard (Cache.shard_of_key k);
      let path = Cache.shard_file dir shard in
      Alcotest.(check bool) (k ^ " shard file exists") true (Sys.file_exists path);
      let ic = open_in path in
      let line = input_line ic in
      close_in ic;
      Alcotest.(check bool) (k ^ " record in its shard") true
        (let rec find i =
           i + String.length k <= String.length line
           && (String.sub line i (String.length k) = k || find (i + 1))
         in
         find 0))
    [ ("0aaaaaaaaaaaaaaa", 0); ("7bbbbbbbbbbbbbbb", 7); ("fccccccccccccccc", 15) ]

let suites =
  [
    ( "cache/concurrent",
      [
        Alcotest.test_case "two processes, one directory" `Quick test_two_processes;
        Alcotest.test_case "two domains, one cache" `Quick test_two_domains_one_cache;
        Alcotest.test_case "records land in their hash shard" `Quick
          test_shard_placement;
      ] );
  ]
