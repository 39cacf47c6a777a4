(* The serve-mixed workload: a dpmr_serve daemon driven closed-loop by
   [nproc] client connections, each waiting for every reply before
   sending its next request, as dispatch clients do.  The request stream
   is the load generator's seeded mix with two changes: 92% of draws
   (not 90%) come from the hot set of 128 experiment identities that
   set-up prefills, and the other 8% from a cold space of a million
   identities (the load generator's 64 cold experiment seeds, with 1024
   run seeds each instead of 4), so cold draws keep missing for the whole
   timed phase instead of turning into hits after a few seconds.  A miss builds
   a context when its experiment seed is new, simulates and appends to
   the cache. *)

module Engine = Dpmr_engine.Engine
module Cache = Dpmr_engine.Cache
module Job = Dpmr_engine.Job
module Protocol = Dpmr_server.Protocol
module Client = Dpmr_server.Client
module Experiment = Dpmr_fi.Experiment
module Inject = Dpmr_fi.Inject
module J = Dpmr_trace.Json_check

(* ---------------- the request stream (as dpmr_loadgen draws it) ---------------- *)

let sm_next st =
  st := Int64.add !st 0x9e3779b97f4a7c15L;
  let z = !st in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94d049bb133111ebL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let below st n = Int64.to_int (Int64.rem (Int64.logand (sm_next st) Int64.max_int) (Int64.of_int n))
let workloads = [| "art"; "bzip2"; "equake"; "mcf" |]
let hot_pct = 92
let cold_runs = 1024

let params ~workload ~exp_seed ~run_seed cls =
  let p =
    { Protocol.default_run with Protocol.workload; exp_seed; run_seed; cfg_seed = exp_seed }
  in
  match cls with
  | 0 -> { p with Protocol.golden = true }
  | 1 -> p
  | 2 -> { p with Protocol.kind = Some (Inject.Heap_array_resize 50); site = 0 }
  | _ -> { p with Protocol.kind = Some Inject.Immediate_free; site = 0 }

let draw st =
  let hot = below st 100 < hot_pct in
  let workload = workloads.(below st (Array.length workloads)) in
  let exp_seed =
    if hot then Int64.of_int (42 + below st 2) else Int64.of_int (1000 + below st 64)
  in
  let run_seed = Int64.add exp_seed (Int64.of_int (below st (if hot then 4 else cold_runs))) in
  params ~workload ~exp_seed ~run_seed (below st 4)

let stream seed conn = ref (Int64.add (Int64.of_int seed) (Int64.mul 0x5851f42d4c957f2dL (Int64.of_int (conn + 1))))

(** Every hot identity: what set-up prefills. *)
let hot_set =
  List.concat_map
    (fun workload ->
      List.concat_map
        (fun e ->
          let exp_seed = Int64.of_int e in
          List.concat_map
            (fun r ->
              List.init 4 (params ~workload ~exp_seed ~run_seed:(Int64.add exp_seed (Int64.of_int r))))
            [ 0; 1; 2; 3 ])
        [ 42; 43 ])
    (Array.to_list workloads)

(* ---------------- the daemon ---------------- *)

type daemon = { pid : int; sock : string; dir : string }

let ready_wait = 30.
let stop_wait = 30.

(* daemons started and not yet reaped: killed at exit if the run ends
   early, so that no process outlives the benchmark *)
let live = ref []

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !live)

let reaped pid = live := List.filter (( <> ) pid) !live

let alive pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> true
  | _ -> false
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> false

(** Start dpmr_serve and wait, at most [ready_wait] seconds, for its
    ready line. *)
let start ~exe ~work i =
  let sock = Filename.concat work (Printf.sprintf "s%d.sock" i) in
  let dir = Util.fresh_dir (Filename.concat work (Printf.sprintf "cache%d" i)) in
  let log = Filename.concat work (Printf.sprintf "daemon%d.out" i) in
  let out = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let err = Unix.openfile (log ^ ".err") [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let pid =
    Unix.create_process exe
      [| exe; "--socket"; sock; "--workers"; string_of_int (Util.nproc ());
         "--cache-dir"; dir; "--quiet" |]
      Unix.stdin out err
  in
  Unix.close out;
  Unix.close err;
  live := pid :: !live;
  let d = { pid; sock; dir } in
  let deadline = Util.now () +. ready_wait in
  let rec wait () =
    let text = Util.read_file log in
    if Util.contains text "dpmr_serve: ready" then Ok d
    else if not (alive pid) then begin
      reaped pid;
      Error "dpmr_serve exited before it became ready"
    end
    else if Util.now () > deadline then begin
      Unix.kill pid Sys.sigkill;
      ignore (Unix.waitpid [] pid);
      reaped pid;
      Error (Printf.sprintf "dpmr_serve not ready after %.0f s" ready_wait)
    end
    else begin
      Unix.sleepf 0.005;
      wait ()
    end
  in
  wait ()

(** Drain with SIGTERM and wait, at most [stop_wait] seconds, for a
    clean exit. *)
let stop d =
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = Util.now () +. stop_wait in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ when Util.now () > deadline ->
        Unix.kill d.pid Sys.sigkill;
        ignore (Unix.waitpid [] d.pid);
        Error "dpmr_serve did not drain within the grace period"
    | 0, _ ->
        Unix.sleepf 0.01;
        wait ()
    | _, Unix.WEXITED 0 -> Ok ()
    | _, _ -> Error "dpmr_serve exited uncleanly on SIGTERM"
  in
  let r = wait () in
  reaped d.pid;
  r

let connect d = Client.connect_unix ~timeout:20. d.sock

(** Set-up as users pay it: daemon start to ready, then the hot set. *)
let setup ~exe ~work i =
  let t0 = Util.now () in
  match start ~exe ~work i with
  | Error m -> Error m
  | Ok d -> (
      let c = connect d in
      let bad =
        List.filter
          (fun p -> match Client.run c p with Protocol.Verdict _ -> false | _ -> true)
          hot_set
      in
      Client.close c;
      match bad with
      | [] -> Ok (d, Util.now () -. t0)
      | _ ->
          ignore (stop d);
          Error (Printf.sprintf "%d prefill request(s) failed" (List.length bad)))

(* ---------------- the closed loop ---------------- *)

type reply = Hit | Miss | Refused | Failed

type req = {
  conn : int;
  p : Protocol.run_params;
  t0 : float;
  t1 : float;
  reply : reply;
  wall_us : int;  (** the daemon's own handling time, from the verdict *)
  cls : Experiment.classification option;
}

(** One connection per stream, each closed-loop until [until]; the
    streams carry on where an earlier call left them. *)
let drive d ~streams ~until =
  let conn i () =
    let st = streams.(i) in
    let c = connect d in
    let rec go acc =
      if Util.now () >= until then acc
      else
        let p = draw st in
        let t0 = Util.now () in
        let r =
          match Client.run c p with
          | Protocol.Verdict v ->
              let reply = if v.Protocol.cached then Hit else Miss in
              { conn = i; p; t0; t1 = Util.now (); reply; wall_us = v.Protocol.wall_us;
                cls = Some v.Protocol.cls }
          | Protocol.Error (Protocol.Quota, _) ->
              { conn = i; p; t0; t1 = Util.now (); reply = Refused; wall_us = 0; cls = None }
          | _ | (exception _) ->
              { conn = i; p; t0; t1 = Util.now (); reply = Failed; wall_us = 0; cls = None }
        in
        if r.reply = Failed then r :: acc else go (r :: acc)
    in
    let rs = go [] in
    Client.close c;
    rs
  in
  List.concat_map Domain.join (List.init (Array.length streams) (fun i -> Domain.spawn (conn i)))

let streams seed = Array.init (Util.nproc ()) (stream seed)

(* ---------------- daemon-side counters ---------------- *)

type stats = {
  errors : int;
  quota_rejects : int;
  tele : Report.tele;
  tier : int * int;  (** (promoted, deopts) since the daemon started *)
}

let stats d =
  let c = connect d in
  let r = Client.stats c in
  Client.close c;
  match r with
  | Protocol.Stats_json json -> (
      match J.parse json with
      | Error m -> Error ("stats frame: " ^ m)
      | Ok root ->
          let rec get path v =
            match path with
            | [] -> ( match v with J.Num x -> x | _ -> 0.)
            | k :: rest -> ( match J.mem k v with Some v -> get rest v | None -> 0.)
          in
          let i path = int_of_float (get path root) in
          let tl = [ "telemetry" ] in
          Ok
            {
              errors = i [ "errors" ];
              quota_rejects = i [ "quota_rejects" ];
              tele =
                {
                  Report.jobs_run = i (tl @ [ "jobs"; "run" ]);
                  jobs_cached = i (tl @ [ "jobs"; "cached" ]);
                  jobs_failed = i (tl @ [ "jobs"; "failed" ]);
                  retries = i (tl @ [ "retries" ]);
                  tasks = i (tl @ [ "tasks_run" ]);
                  cost = Int64.of_float (get (tl @ [ "cost_units" ]) root);
                  busy = get (tl @ [ "busy_seconds" ]) root;
                  wall = get (tl @ [ "wall_seconds" ]) root;
                  batches = i (tl @ [ "batches" ]);
                  hits = i (tl @ [ "cache"; "hits" ]);
                  misses = i (tl @ [ "cache"; "lookups" ]) - i (tl @ [ "cache"; "hits" ]);
                  added = i (tl @ [ "cache"; "added" ]);
                  forked = 0;
                };
              tier = (i (tl @ [ "tier"; "promoted" ]), i (tl @ [ "tier"; "deopts" ]));
            })
  | _ -> Error "stats request got no stats frame"

(* ---------------- in-process verdicts ---------------- *)

(** The job a run frame denotes, resolved the way the daemon resolves it. *)
let job_of_params ~ctx (p : Protocol.run_params) =
  let e : Experiment.t = ctx p.Protocol.workload p.Protocol.exp_seed in
  let cfg = Protocol.config_of p in
  let variant =
    if p.Protocol.golden then Experiment.Golden
    else
      match p.Protocol.kind with
      | None -> Experiment.Nofi_dpmr cfg
      | Some k -> Experiment.Fi_dpmr (cfg, k, List.nth (Experiment.sites e k) p.Protocol.site)
  in
  ( e,
    {
      Mix.app = p.Protocol.workload;
      exp_seed = p.Protocol.exp_seed;
      run_seed = p.Protocol.run_seed;
      variant;
    } )

(** Recompute served verdicts through an in-process engine; returns how
    many differ. *)
let verify ~ctx (served : req list) =
  let engine = Engine.create ~jobs:(Util.nproc ()) ~use_cache:false ~progress:false () in
  let specs =
    List.map
      (fun r ->
        let e, (j : Mix.job) = job_of_params ~ctx r.p in
        Job.make e ~workload:j.Mix.app ~scale:1 ~run_seed:j.Mix.run_seed j.Mix.variant)
      served
  in
  let results = Engine.run_specs_r engine specs in
  Engine.close engine;
  List.fold_left2
    (fun bad r res ->
      match (r.cls, res) with
      | Some c, Experiment.Run c' when c = c' -> bad
      | _ ->
          Printf.eprintf "perfbench: served verdict for %s differs from the in-process one\n%!"
            (Protocol.encode_request { Protocol.rid = 0; body = Protocol.Run r.p });
          bad + 1)
    0 served results
