(* Remote-dispatch tests (lib/engine/dispatch + lib/server/remote):
   the failover matrix against a deterministic fake transport — happy
   path, failover with quarantine, all-remotes-dead local fallback,
   min-workers floor holes, remote job failures vs rejections, hedging
   with first-result-wins — plus end-to-end campaigns against real
   in-process daemons: multi-worker scatter equal to a local run, a
   worker draining mid-campaign, and wire chaos on the serving path. *)

module Config = Dpmr_core.Config
module Experiment = Dpmr_fi.Experiment
module Job = Dpmr_engine.Job
module Chaos = Dpmr_engine.Chaos
module Supervisor = Dpmr_engine.Supervisor
module Dispatch = Dpmr_engine.Dispatch
module Engine = Dpmr_engine.Engine
module Server = Dpmr_server.Server
module Remote = Dpmr_server.Remote

(* ---- fake transport ---- *)

let spec i =
  {
    Job.workload = "fake";
    scale = 1;
    exp_seed = 42L;
    run_seed = Int64.of_int i;
    budget = 1000L;
    variant = Experiment.Golden;
  }

let items n = List.init n (fun i -> let s = spec i in (Job.hash s, s))

(* the "verdict" the fake remote (and fake local engine) computes: a
   pure function of the spec, so misrouted results are detectable *)
let cls_of ((_, s) : Dispatch.item) =
  {
    Experiment.sf = false;
    co = false;
    ndet = false;
    ddet = false;
    timeout = false;
    t2d = None;
    cost = Int64.add 1000L s.Job.run_seed;
    peak_heap = s.Job.scale;
  }

type fake = {
  alive : bool Atomic.t;  (** connect / batch / ping all fail when false *)
  stall : float;  (** seconds each batch takes *)
  fail_next : int Atomic.t;  (** fail this many batches with [Host_down] *)
  reply : Dispatch.item -> Dispatch.remote_result;
  batches : Dispatch.item array list Atomic.t;  (** completed calls, latest first *)
}

let fake ?(alive = true) ?(stall = 0.) ?(fail_next = 0) ?(reply = fun it -> Dispatch.R_verdict (cls_of it))
    () =
  {
    alive = Atomic.make alive;
    stall;
    fail_next = Atomic.make fail_next;
    reply;
    batches = Atomic.make [];
  }

let record_batch f items =
  let rec go () =
    let old = Atomic.get f.batches in
    if not (Atomic.compare_and_set f.batches old (items :: old)) then go ()
  in
  go ()

let fake_transport hosts =
  {
    Dispatch.connect =
      (fun addr ->
        let f = List.assoc addr hosts in
        if not (Atomic.get f.alive) then raise (Dispatch.Host_down "connect refused");
        {
          Dispatch.c_run_batch =
            (fun items ->
              if not (Atomic.get f.alive) then raise (Dispatch.Host_down "reset");
              if Atomic.fetch_and_add f.fail_next (-1) > 0 then
                raise (Dispatch.Host_down "injected failure")
              else Atomic.incr f.fail_next;
              if f.stall > 0. then Unix.sleepf f.stall;
              record_batch f items;
              Array.map f.reply items);
          c_ping = (fun () -> Atomic.get f.alive);
          c_abort = ignore;
          c_close = ignore;
        });
  }

let fast_policy =
  {
    Dispatch.base =
      { Supervisor.deadline = None; max_retries = 3; backoff = 0.001; backoff_max = 0.004 };
    window = 2;
    chunk_jobs = 2;
    hedge_after = 0.;
    quarantine_after = 3;
    probe_period = 0.02;
    min_workers = 0;
  }

(* degradation path: the fake "local engine" *)
let local_count = Atomic.make 0

let fake_local items =
  List.map
    (fun it ->
      Atomic.incr local_count;
      (it, Dispatch.Done (cls_of it), 0.))
    items

let run_fake ?(policy = fast_policy) hosts items =
  Atomic.set local_count 0;
  let t = Dispatch.create ~policy (fake_transport hosts) ~hosts:(List.map fst hosts) in
  let out = Dispatch.run t ~local:fake_local items in
  (t, out)

let check_all_done name expect completed =
  Alcotest.(check int) (name ^ ": result count") (List.length expect) (List.length completed);
  List.iter2
    (fun (k, s) ((k', _), out, _) ->
      Alcotest.(check string) (name ^ ": input order") k k';
      match out with
      | Dispatch.Done c ->
          Alcotest.(check bool) (name ^ ": verdict content") true (c = cls_of (k, s))
      | Dispatch.Hole h -> Alcotest.failf "%s: unexpected hole (%s: %s)" name h.Dispatch.hreason h.Dispatch.herror)
    expect completed

let test_happy_path () =
  let hosts = [ ("w0", fake ()); ("w1", fake ()) ] in
  let items = items 12 in
  let t, out = run_fake hosts items in
  check_all_done "happy" items out;
  let tot = Dispatch.totals t in
  Alcotest.(check int) "all jobs remote" 12 tot.Dispatch.t_remote_jobs;
  Alcotest.(check int) "no local fallback" 0 tot.Dispatch.t_local_jobs;
  Alcotest.(check int) "no holes" 0 tot.Dispatch.t_holes;
  let served =
    List.fold_left (fun acc h -> acc + h.Dispatch.hs_jobs) 0 (Dispatch.host_stats t)
  in
  Alcotest.(check int) "host stats account every job" 12 served;
  Alcotest.(check int) "both hosts healthy" 2 (Dispatch.healthy_hosts t)

let test_failover_quarantine () =
  (* w0 is dead from the start; every chunk it would have served fails
     over to w1 and the campaign still completes in full *)
  let hosts = [ ("w0", fake ~alive:false ()); ("w1", fake ~stall:0.01 ()) ] in
  let policy = { fast_policy with Dispatch.quarantine_after = 1 } in
  let items = items 10 in
  let t, out = run_fake ~policy hosts items in
  check_all_done "failover" items out;
  let s0 = List.find (fun h -> h.Dispatch.hs_addr = "w0") (Dispatch.host_stats t) in
  Alcotest.(check bool) "dead host saw failures" true (s0.Dispatch.hs_failures >= 1);
  Alcotest.(check bool) "dead host quarantined" true (s0.Dispatch.hs_quarantined >= 1);
  Alcotest.(check bool) "dead host unhealthy" false s0.Dispatch.hs_healthy;
  Alcotest.(check int) "dead host won no jobs" 0 s0.Dispatch.hs_jobs

let test_transient_failure_redispatch () =
  (* w0 fails its first two batches, then recovers: re-dispatch with
     backoff must absorb the failures without quarantining forever *)
  let hosts = [ ("w0", fake ~fail_next:2 ()); ("w1", fake ()) ] in
  let items = items 12 in
  let t, out = run_fake hosts items in
  check_all_done "transient" items out;
  let tot = Dispatch.totals t in
  Alcotest.(check bool) "failures were re-dispatched" true (tot.Dispatch.t_requeues >= 1);
  Alcotest.(check int) "no holes" 0 tot.Dispatch.t_holes

let test_all_dead_local_fallback () =
  let hosts = [ ("w0", fake ~alive:false ()); ("w1", fake ~alive:false ()) ] in
  let policy = { fast_policy with Dispatch.quarantine_after = 1 } in
  let items = items 8 in
  let t, out = run_fake ~policy hosts items in
  check_all_done "all-dead" items out;
  let tot = Dispatch.totals t in
  Alcotest.(check int) "nothing served remotely" 0 tot.Dispatch.t_remote_jobs;
  Alcotest.(check int) "everything fell back to local" 8 tot.Dispatch.t_local_jobs;
  Alcotest.(check int) "local engine really ran them" 8 (Atomic.get local_count);
  Alcotest.(check int) "no healthy hosts" 0 (Dispatch.healthy_hosts t)

let test_min_workers_floor () =
  (* with a floor of 1 and zero healthy workers the batch must finish
     with explicit holes — never an abort, never a silent local run *)
  let hosts = [ ("w0", fake ~alive:false ()); ("w1", fake ~alive:false ()) ] in
  let policy = { fast_policy with Dispatch.quarantine_after = 1; min_workers = 1 } in
  let items = items 6 in
  let t, out = run_fake ~policy hosts items in
  Alcotest.(check int) "every job answered" 6 (List.length out);
  List.iter
    (fun (_, outcome, _) ->
      match outcome with
      | Dispatch.Hole h ->
          Alcotest.(check string) "hole reason" "dispatch-floor" h.Dispatch.hreason
      | Dispatch.Done _ -> Alcotest.fail "below the floor no job may complete")
    out;
  Alcotest.(check int) "holes counted" 6 (Dispatch.totals t).Dispatch.t_holes;
  Alcotest.(check int) "local engine never invoked" 0 (Atomic.get local_count)

let test_remote_failed_is_hole () =
  let broken = spec 3 in
  let bkey = Job.hash broken in
  let reply (k, _) =
    if k = bkey then Dispatch.R_failed "deterministic deadline"
    else Dispatch.R_verdict (cls_of (k, broken))
  in
  let hosts = [ ("w0", fake ~reply ()) ] in
  let items = items 6 in
  let _, out = run_fake hosts items in
  Alcotest.(check int) "every job answered" 6 (List.length out);
  List.iter
    (fun ((k, _), outcome, _) ->
      match outcome with
      | Dispatch.Hole h when k = bkey ->
          Alcotest.(check string) "remote failure reason" "remote" h.Dispatch.hreason
      | Dispatch.Hole h -> Alcotest.failf "unexpected hole: %s" h.Dispatch.herror
      | Dispatch.Done _ when k = bkey -> Alcotest.fail "failed job must stay a hole"
      | Dispatch.Done _ -> ())
    out

let test_remote_reject_runs_locally () =
  let rejected = spec 0 in
  let rkey = Job.hash rejected in
  let reply (k, s) =
    if k = rkey then Dispatch.R_reject "unknown workload" else Dispatch.R_verdict (cls_of (k, s))
  in
  let hosts = [ ("w0", fake ~reply ()) ] in
  let items = items 5 in
  let t, out = run_fake hosts items in
  check_all_done "reject" items out;
  Alcotest.(check int) "rejected job ran locally" 1 (Atomic.get local_count);
  Alcotest.(check int) "rejected job billed local" 1 (Dispatch.totals t).Dispatch.t_local_jobs

let test_hedging_first_result_wins () =
  (* w0 sits on every chunk for a second; hedges onto w1 must win and
     the stragglers' late verdicts must dedup, not double-count *)
  let hosts = [ ("w0", fake ~stall:1.0 ()); ("w1", fake ~stall:0.02 ()) ] in
  let policy =
    { fast_policy with Dispatch.chunk_jobs = 1; hedge_after = 0.05; window = 2 }
  in
  let items = items 8 in
  let t, out = run_fake ~policy hosts items in
  check_all_done "hedge" items out;
  let tot = Dispatch.totals t in
  Alcotest.(check bool) "hedges issued" true (tot.Dispatch.t_hedges >= 1);
  Alcotest.(check bool) "a hedge won" true (tot.Dispatch.t_hedge_wins >= 1);
  Alcotest.(check int) "no holes" 0 tot.Dispatch.t_holes

(* ---- end-to-end against real in-process daemons ---- *)

let in_tmp_dir f =
  let dir = Filename.temp_file "dpmr_dispatch_test" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let cwd = Sys.getcwd () in
  Sys.chdir dir;
  Fun.protect ~finally:(fun () -> Sys.chdir cwd) (fun () -> f dir)

let boot_server dir name =
  let engine = Engine.create ~jobs:2 ~use_cache:false ~resident:true () in
  let sock = Filename.concat dir (name ^ ".sock") in
  let cfg = { Server.default_config with Server.listen = Server.Unix_sock sock } in
  let t = Server.create ~cfg engine in
  let ready = Atomic.make false in
  let d = Domain.spawn (fun () -> Server.serve ~ready:(fun () -> Atomic.set ready true) t) in
  while not (Atomic.get ready) do
    Unix.sleepf 0.01
  done;
  (t, d, engine, "unix:" ^ sock)

let stop_server (t, d, engine, _) =
  Server.request_drain t;
  Domain.join d;
  Engine.close engine

let e2e_specs =
  let nofi seed =
    {
      Job.workload = "mcf";
      scale = 1;
      exp_seed = 42L;
      run_seed = seed;
      budget = 2_000_000L;
      variant = Experiment.Nofi_dpmr { Config.default with Config.seed = 42L };
    }
  in
  [
    { (nofi 43L) with Job.variant = Experiment.Golden };
    nofi 43L;
    nofi 44L;
    { (nofi 45L) with Job.workload = "art" };
    { (nofi 46L) with Job.variant = Experiment.Golden; workload = "art" };
    nofi 47L;
  ]

let reference_run () =
  let e = Engine.create ~jobs:2 ~use_cache:false () in
  let r = Engine.run_specs e e2e_specs in
  Engine.close e;
  r

let dispatch_policy =
  {
    Dispatch.default_policy with
    Dispatch.base =
      { Supervisor.default_policy with Supervisor.backoff = 0.002; backoff_max = 0.02 };
    window = 2;
    chunk_jobs = 2;
    probe_period = 0.05;
    quarantine_after = 2;
  }

let run_dispatched ?(policy = dispatch_policy) hosts =
  let dispatcher = Dispatch.create ~policy (Remote.transport ~timeout:30. ()) ~hosts in
  let e = Engine.create ~jobs:2 ~use_cache:false ~dispatcher () in
  let r = Engine.run_specs e e2e_specs in
  Engine.close e;
  (dispatcher, r)

let test_e2e_two_workers () =
  in_tmp_dir @@ fun dir ->
  let reference = reference_run () in
  let s0 = boot_server dir "w0" and s1 = boot_server dir "w1" in
  let _, _, _, a0 = s0 and _, _, _, a1 = s1 in
  Fun.protect
    ~finally:(fun () -> stop_server s0; stop_server s1)
    (fun () ->
      let d, out = run_dispatched [ a0; a1 ] in
      Alcotest.(check bool) "dispatched verdicts = local verdicts" true (out = reference);
      let tot = Dispatch.totals d in
      Alcotest.(check bool) "remote execution happened" true
        (tot.Dispatch.t_remote_jobs >= 1))

let test_e2e_dead_host_failover () =
  in_tmp_dir @@ fun dir ->
  let reference = reference_run () in
  let s0 = boot_server dir "w0" in
  let _, _, _, a0 = s0 in
  Fun.protect
    ~finally:(fun () -> stop_server s0)
    (fun () ->
      (* second address never listens: connect fails, host quarantines,
         campaign completes on the survivor alone *)
      let dead = "unix:" ^ Filename.concat dir "never.sock" in
      let d, out = run_dispatched [ a0; dead ] in
      Alcotest.(check bool) "verdicts survive a dead worker" true (out = reference);
      let sd =
        List.find (fun h -> h.Dispatch.hs_addr = dead) (Dispatch.host_stats d)
      in
      Alcotest.(check bool) "dead host recorded failures" true
        (sd.Dispatch.hs_failures >= 1);
      Alcotest.(check int) "dead host served nothing" 0 sd.Dispatch.hs_jobs)

let test_e2e_all_dead_local () =
  in_tmp_dir @@ fun dir ->
  let reference = reference_run () in
  let dead0 = "unix:" ^ Filename.concat dir "no0.sock" in
  let dead1 = "unix:" ^ Filename.concat dir "no1.sock" in
  let policy = { dispatch_policy with Dispatch.quarantine_after = 1 } in
  let d, out = run_dispatched ~policy [ dead0; dead1 ] in
  Alcotest.(check bool) "local degradation is byte-identical" true (out = reference);
  Alcotest.(check int) "nothing ran remotely" 0 (Dispatch.totals d).Dispatch.t_remote_jobs

let test_e2e_drain_mid_campaign () =
  in_tmp_dir @@ fun dir ->
  let reference = reference_run () in
  let s0 = boot_server dir "w0" and s1 = boot_server dir "w1" in
  let t0, _, _, a0 = s0 and _, _, _, a1 = s1 in
  (* drain w0 almost immediately: in-flight chunks fail with Draining /
     connection loss and must re-dispatch onto w1 *)
  let killer =
    Domain.spawn (fun () ->
        Unix.sleepf 0.05;
        Server.request_drain t0)
  in
  Fun.protect
    ~finally:(fun () ->
      Domain.join killer;
      stop_server s1;
      stop_server s0)
    (fun () ->
      let _, out = run_dispatched [ a0; a1 ] in
      Alcotest.(check bool) "verdicts survive a mid-campaign drain" true
        (out = reference))

let test_e2e_wire_chaos () =
  in_tmp_dir @@ fun dir ->
  let reference = reference_run () in
  (* stalls, torn frames and resets on every served reply (kills are
     downgraded to resets in-process); the dispatcher must still
     converge to byte-identical verdicts *)
  Chaos.set_wire (Some (Chaos.make ~prob:0.5 ~seed:11L ~max_delay:0.02 ()));
  Fun.protect
    ~finally:(fun () -> Chaos.set_wire None)
    (fun () ->
      let s0 = boot_server dir "w0" and s1 = boot_server dir "w1" in
      let _, _, _, a0 = s0 and _, _, _, a1 = s1 in
      Fun.protect
        ~finally:(fun () -> stop_server s0; stop_server s1)
        (fun () ->
          let _, out = run_dispatched [ a0; a1 ] in
          Alcotest.(check bool) "verdicts survive wire chaos" true (out = reference)))

let suites =
  [
    ( "dispatch/fake",
      [
        Alcotest.test_case "happy path" `Quick test_happy_path;
        Alcotest.test_case "failover + quarantine" `Quick test_failover_quarantine;
        Alcotest.test_case "transient failures re-dispatch" `Quick
          test_transient_failure_redispatch;
        Alcotest.test_case "all dead: local fallback" `Quick test_all_dead_local_fallback;
        Alcotest.test_case "min-workers floor: explicit holes" `Quick
          test_min_workers_floor;
        Alcotest.test_case "remote failure is a hole" `Quick test_remote_failed_is_hole;
        Alcotest.test_case "remote reject runs locally" `Quick
          test_remote_reject_runs_locally;
        Alcotest.test_case "hedging: first result wins" `Quick
          test_hedging_first_result_wins;
      ] );
    ( "dispatch/e2e",
      [
        Alcotest.test_case "two workers = local verdicts" `Quick test_e2e_two_workers;
        Alcotest.test_case "dead worker fails over" `Quick test_e2e_dead_host_failover;
        Alcotest.test_case "all workers dead: local" `Quick test_e2e_all_dead_local;
        Alcotest.test_case "drain mid-campaign" `Quick test_e2e_drain_mid_campaign;
        Alcotest.test_case "wire chaos converges" `Quick test_e2e_wire_chaos;
      ] );
  ]
