(** Failure-hardened multi-host scatter/gather.

    The dispatcher treats remote workers the way the Supervisor treats
    jobs: every interaction is an attempt that may fail, failures are
    classified and paced, and no failure schedule can abort a batch.
    The load-bearing invariant comes from content-addressed job
    identity: a job's cache key {e is} its meaning, so re-dispatching
    it, racing two copies of it, or replaying it after a reconnect are
    all safe — the first verdict gathered for a key wins and every
    later one is discarded.

    Concurrency shape (per {!run}):

    - [window] runner domains per host, each owning one connection and
      serving one chunk at a time — the bounded outstanding-window;
    - one prober domain per host heart-beating on its own connection,
      quarantining after consecutive misses and reviving on success;
    - the calling thread drives the gather loop: it drains chunks that
      must run locally (exhausted re-dispatch budgets, rejected specs,
      all hosts dead), issues hedge duplicates against stragglers, and
      declares the [min_workers] floor breached — the only path that
      manufactures holes, and it still completes the batch.

    Work moves through one mutex-guarded state: a queue of chunk
    entries, an in-flight list (for hedging), a local queue, and a
    first-write-wins results array.  Runners park on a condition
    variable while their host is quarantined; probers wake them on
    revival. *)

module Experiment = Dpmr_fi.Experiment

type item = string * Job.spec

type hole = { hreason : string; hattempts : int; herror : string }
type outcome = Done of Experiment.classification | Hole of hole
type completed = item * outcome * float

type remote_result =
  | R_verdict of Experiment.classification
  | R_failed of string
  | R_reject of string

exception Host_down of string

type conn = {
  c_run_batch : item array -> remote_result array;
  c_ping : unit -> bool;
  c_abort : unit -> unit;
  c_close : unit -> unit;
}

type transport = { connect : string -> conn }

type policy = {
  base : Supervisor.policy;
  window : int;
  chunk_jobs : int;
  hedge_after : float;
  quarantine_after : int;
  probe_period : float;
  min_workers : int;
}

let default_policy =
  {
    base = Supervisor.default_policy;
    window = 4;
    chunk_jobs = 0;
    hedge_after = 1.5;
    quarantine_after = 3;
    probe_period = 0.5;
    min_workers = 0;
  }

type host_stats = {
  hs_addr : string;
  hs_healthy : bool;
  hs_sent : int;
  hs_completed : int;
  hs_jobs : int;
  hs_retried : int;
  hs_hedged : int;
  hs_quarantined : int;
  hs_failures : int;
  hs_rtt_p50_ms : float;
  hs_rtt_p95_ms : float;
}

type totals = {
  t_remote_jobs : int;
  t_local_jobs : int;
  t_holes : int;
  t_hedges : int;
  t_hedge_wins : int;
  t_requeues : int;
  t_duplicate_results : int;
}

type host = {
  h_idx : int;
  h_addr : string;
  mutable h_healthy : bool;
  mutable h_consec : int;  (** consecutive connection-level failures *)
  mutable h_probed : bool;  (** heart-beaten at least once this run *)
  mutable h_sent : int;
  mutable h_completed : int;
  mutable h_jobs : int;
  mutable h_retried : int;
  mutable h_hedged : int;
  mutable h_quarantined : int;
  mutable h_failures : int;
  mutable h_rtts : float list;
}

(* A chunk is the dispatch unit: a run of consecutive items, each
   carrying its global result index. *)
type chunk = {
  ck_items : (item * int) array;
  mutable ck_attempts : int;  (** re-dispatches consumed *)
  mutable ck_hedged : bool;
  mutable ck_hedge_won : bool;
}

type entry = { qe_chunk : chunk; qe_not_on : int option; qe_hedge : bool }

(* Per-run gather state; host health and telemetry live on [t] and
   persist across the many batches of a campaign. *)
type run_state = {
  all : (item * int) array;
  results : completed option array;
  localized : bool array;  (** claimed by a local batch in progress *)
  mutable remaining : int;
  queue : entry Queue.t;
  mutable localq : chunk list;
  mutable inflight : (int * int * chunk * float) list;  (** token, host, chunk, t0 *)
  mutable conns : conn list;
  mutable next_token : int;
  mutable stop : bool;
  mutable floor_breached : bool;
}

type t = {
  transport : transport;
  policy : policy;
  hosts : host array;
  mu : Mutex.t;
  work : Condition.t;
  mutable tot_local : int;
  mutable tot_holes : int;
  mutable tot_hedges : int;
  mutable tot_hedge_wins : int;
  mutable tot_requeues : int;
  mutable tot_dups : int;
  mutable running : bool;
}

let now () = Unix.gettimeofday ()

let create ?(policy = default_policy) transport ~hosts =
  if hosts = [] then invalid_arg "Dispatch.create: empty host list";
  let policy =
    {
      policy with
      window = max 1 policy.window;
      quarantine_after = max 1 policy.quarantine_after;
      probe_period = Float.max 0.05 policy.probe_period;
    }
  in
  let mk i addr =
    {
      h_idx = i;
      h_addr = addr;
      h_healthy = true;
      h_consec = 0;
      h_probed = false;
      h_sent = 0;
      h_completed = 0;
      h_jobs = 0;
      h_retried = 0;
      h_hedged = 0;
      h_quarantined = 0;
      h_failures = 0;
      h_rtts = [];
    }
  in
  {
    transport;
    policy;
    hosts = Array.of_list (List.mapi mk hosts);
    mu = Mutex.create ();
    work = Condition.create ();
    tot_local = 0;
    tot_holes = 0;
    tot_hedges = 0;
    tot_hedge_wins = 0;
    tot_requeues = 0;
    tot_dups = 0;
    running = false;
  }

(* ---------------- chunking ---------------- *)

(* Auto chunk size: enough chunks to keep every window slot busy a few
   times over (so failures forfeit little work), but not so small that
   framing dominates. *)
let chunk_target t ~total_jobs =
  if t.policy.chunk_jobs > 0 then t.policy.chunk_jobs
  else
    let slots = Array.length t.hosts * t.policy.window in
    max 1 (min 24 (total_jobs / max 1 (slots * 4)))

let mk_chunk ?(attempts = 0) items =
  { ck_items = items; ck_attempts = attempts; ck_hedged = false; ck_hedge_won = false }

let chunks_of_items t items =
  let all = Array.of_list (List.mapi (fun i it -> (it, i)) items) in
  let n = Array.length all in
  let target = chunk_target t ~total_jobs:n in
  ( List.init ((n + target - 1) / target) (fun c ->
        let lo = c * target in
        mk_chunk (Array.sub all lo (min target (n - lo)))),
    all )

(* ---------------- shared-state transitions (all under [t.mu]) ---------------- *)

let chunk_done rs ck =
  Array.for_all (fun (_, gi) -> rs.results.(gi) <> None || rs.localized.(gi)) ck.ck_items

let quarantine_if_due t host =
  if host.h_healthy && host.h_consec >= t.policy.quarantine_after then begin
    host.h_healthy <- false;
    host.h_quarantined <- host.h_quarantined + 1
  end

let note_failure t host =
  host.h_failures <- host.h_failures + 1;
  host.h_consec <- host.h_consec + 1;
  quarantine_if_due t host;
  Condition.broadcast t.work

let note_success t host =
  host.h_consec <- 0;
  if not host.h_healthy then begin
    host.h_healthy <- true;
    Condition.broadcast t.work
  end

(* Re-dispatch a failed chunk; budget exhausted sends it local. *)
let requeue t rs host ck =
  if (not (chunk_done rs ck)) && (not rs.stop) && not rs.floor_breached then begin
    ck.ck_attempts <- ck.ck_attempts + 1;
    t.tot_requeues <- t.tot_requeues + 1;
    host.h_retried <- host.h_retried + 1;
    if ck.ck_attempts > t.policy.base.max_retries then rs.localq <- ck :: rs.localq
    else Queue.push { qe_chunk = ck; qe_not_on = None; qe_hedge = false } rs.queue;
    Condition.broadcast t.work
  end

let gather t rs host ~hedge ck replies rtt =
  let items = ck.ck_items in
  let n = Array.length items in
  let share = if n = 0 then 0. else rtt /. float_of_int n in
  let won = ref false in
  Array.iteri
    (fun k reply ->
      let it, gi = items.(k) in
      match reply with
      | R_verdict cls ->
          if rs.results.(gi) = None then begin
            rs.results.(gi) <- Some (it, Done cls, share);
            rs.remaining <- rs.remaining - 1;
            host.h_jobs <- host.h_jobs + 1;
            won := true
          end
          else t.tot_dups <- t.tot_dups + 1
      | R_failed msg ->
          (* the remote supervisor failed the job deterministically:
             that's a verdict about the job, not about the host *)
          if rs.results.(gi) = None then begin
            rs.results.(gi) <-
              Some
                ( it,
                  Hole { hreason = "remote"; hattempts = ck.ck_attempts + 1; herror = msg },
                  share );
            rs.remaining <- rs.remaining - 1;
            t.tot_holes <- t.tot_holes + 1
          end
          else t.tot_dups <- t.tot_dups + 1
      | R_reject _ ->
          if rs.results.(gi) = None && not rs.localized.(gi) then
            rs.localq <- mk_chunk ~attempts:ck.ck_attempts [| items.(k) |] :: rs.localq)
    replies;
  host.h_completed <- host.h_completed + 1;
  host.h_rtts <- rtt :: host.h_rtts;
  if hedge && !won && not ck.ck_hedge_won then begin
    ck.ck_hedge_won <- true;
    t.tot_hedge_wins <- t.tot_hedge_wins + 1
  end;
  Condition.broadcast t.work

(* ---------------- runner domains ---------------- *)

(* Pop the next chunk this host may serve: skip hedge entries excluded
   from it and drop entries whose chunk already finished elsewhere.
   Parks (condition wait) while the host is quarantined or the queue
   holds nothing eligible. *)
let rec take_entry t rs host =
  if rs.stop then None
  else if not host.h_healthy then begin
    Condition.wait t.work t.mu;
    take_entry t rs host
  end
  else begin
    let n = Queue.length rs.queue in
    let chosen = ref None in
    for _ = 1 to n do
      let e = Queue.pop rs.queue in
      if !chosen <> None then Queue.push e rs.queue
      else if chunk_done rs e.qe_chunk then ()
      else if e.qe_not_on = Some host.h_idx then Queue.push e rs.queue
      else chosen := Some e
    done;
    match !chosen with
    | Some e -> Some e
    | None ->
        Condition.wait t.work t.mu;
        take_entry t rs host
  end

let runner t rs host =
  let conn = ref None in
  let get_conn () =
    match !conn with
    | Some c -> c
    | None ->
        let c =
          try t.transport.connect host.h_addr
          with
          | Host_down _ as e -> raise e
          | e -> raise (Host_down (Printexc.to_string e))
        in
        Mutex.protect t.mu (fun () -> rs.conns <- c :: rs.conns);
        conn := Some c;
        c
  in
  let drop_conn () =
    (match !conn with Some c -> ( try c.c_close () with _ -> ()) | None -> ());
    conn := None
  in
  let rec loop () =
    match Mutex.protect t.mu (fun () -> take_entry t rs host) with
    | None -> ()
    | Some e ->
        let ck = e.qe_chunk in
        let items = ck.ck_items in
        let token =
          Mutex.protect t.mu (fun () ->
              host.h_sent <- host.h_sent + 1;
              let tok = rs.next_token in
              rs.next_token <- tok + 1;
              rs.inflight <- (tok, host.h_idx, ck, now ()) :: rs.inflight;
              tok)
        in
        let t0 = now () in
        let outcome =
          try Ok ((get_conn ()).c_run_batch (Array.map fst items)) with
          | Host_down m -> Error m
          | ex -> Error (Printexc.to_string ex)
        in
        let rtt = now () -. t0 in
        Mutex.protect t.mu (fun () ->
            rs.inflight <- List.filter (fun (tk, _, _, _) -> tk <> token) rs.inflight);
        (match outcome with
        | Ok replies when Array.length replies = Array.length items ->
            Mutex.protect t.mu (fun () ->
                note_success t host;
                gather t rs host ~hedge:e.qe_hedge ck replies rtt)
        | Ok _ ->
            (* arity desync: the stream can't be trusted any more *)
            drop_conn ();
            Mutex.protect t.mu (fun () ->
                note_failure t host;
                requeue t rs host ck)
        | Error _ ->
            drop_conn ();
            let attempt =
              Mutex.protect t.mu (fun () ->
                  note_failure t host;
                  requeue t rs host ck;
                  host.h_consec)
            in
            (* pace this host's next attempt with the Supervisor's own
               capped-exponential-backoff-with-jitter discipline *)
            if not (Mutex.protect t.mu (fun () -> rs.stop)) then
              Unix.sleepf
                (Supervisor.backoff_delay t.policy.base ~key:host.h_addr
                   ~attempt:(min attempt 8)));
        loop ()
  in
  loop ()

(* ---------------- heartbeat domains ---------------- *)

let prober t rs host =
  let conn = ref None in
  let drop_conn () =
    (match !conn with Some c -> ( try c.c_close () with _ -> ()) | None -> ());
    conn := None
  in
  let probe () =
    let ok =
      try
        let c =
          match !conn with
          | Some c -> c
          | None ->
              let c = t.transport.connect host.h_addr in
              Mutex.protect t.mu (fun () -> rs.conns <- c :: rs.conns);
              conn := Some c;
              c
        in
        c.c_ping ()
      with _ ->
        drop_conn ();
        false
    in
    Mutex.protect t.mu (fun () ->
        host.h_probed <- true;
        if ok then note_success t host else note_failure t host;
        Condition.broadcast t.work)
  in
  let stopped () = Mutex.protect t.mu (fun () -> rs.stop) in
  probe ();
  let continue = ref (not (stopped ())) in
  while !continue do
    (* sleep the probe period in slices so shutdown stays prompt *)
    let slept = ref 0. in
    while (not (stopped ())) && !slept < t.policy.probe_period do
      Unix.sleepf 0.05;
      slept := !slept +. 0.05
    done;
    if stopped () then continue := false else probe ()
  done;
  drop_conn ()

(* ---------------- the gather loop (calling thread) ---------------- *)

type decision = D_done | D_wait | D_local of item list

let breach_floor t rs ~healthy =
  rs.floor_breached <- true;
  Queue.clear rs.queue;
  rs.localq <- [];
  Array.iter
    (fun (it, gi) ->
      if rs.results.(gi) = None then begin
        rs.results.(gi) <-
          Some
            ( it,
              Hole
                {
                  hreason = "dispatch-floor";
                  hattempts = 0;
                  herror =
                    Printf.sprintf "healthy workers %d below --min-workers %d" healthy
                      t.policy.min_workers;
                },
              0. );
        rs.remaining <- rs.remaining - 1;
        t.tot_holes <- t.tot_holes + 1
      end)
    rs.all;
  Condition.broadcast t.work

(* Claim the local queue: keep only items nobody finished yet, mark
   them so concurrent remote verdicts for the same keys are discarded
   as duplicates rather than re-localized. *)
let claim_local rs cks =
  List.concat_map
    (fun ck ->
      Array.to_list ck.ck_items
      |> List.filter_map (fun (it, gi) ->
             if rs.results.(gi) = None && not rs.localized.(gi) then begin
               rs.localized.(gi) <- true;
               Some it
             end
             else None))
    cks

let decide t rs =
  if rs.remaining = 0 then D_done
  else begin
    let healthy = Array.fold_left (fun a h -> if h.h_healthy then a + 1 else a) 0 t.hosts in
    let all_probed = Array.for_all (fun h -> h.h_probed) t.hosts in
    if
      t.policy.min_workers > 0 && all_probed
      && healthy < t.policy.min_workers
      && not rs.floor_breached
    then begin
      breach_floor t rs ~healthy;
      D_done
    end
    else begin
      (* every remote dead: the queue drains to local execution *)
      if healthy = 0 && all_probed then begin
        Queue.iter
          (fun e -> if not (chunk_done rs e.qe_chunk) then rs.localq <- e.qe_chunk :: rs.localq)
          rs.queue;
        Queue.clear rs.queue
      end;
      (* hedge stragglers when a second host could plausibly win *)
      if t.policy.hedge_after > 0. && healthy >= 2 then begin
        let tnow = now () in
        List.iter
          (fun (_, hidx, ck, t0) ->
            if
              (not ck.ck_hedged)
              && tnow -. t0 > t.policy.hedge_after
              && not (chunk_done rs ck)
            then begin
              ck.ck_hedged <- true;
              t.tot_hedges <- t.tot_hedges + 1;
              t.hosts.(hidx).h_hedged <- t.hosts.(hidx).h_hedged + 1;
              Queue.push { qe_chunk = ck; qe_not_on = Some hidx; qe_hedge = true } rs.queue;
              Condition.broadcast t.work
            end)
          rs.inflight
      end;
      match rs.localq with
      | [] -> D_wait
      | cks -> (
          rs.localq <- [];
          match claim_local rs cks with [] -> D_wait | batch -> D_local batch)
    end
  end

let absorb_local t rs idx_of_key completed =
  Mutex.protect t.mu (fun () ->
      List.iter
        (fun ((((key, _) : item) as it), outcome, wall) ->
          match Hashtbl.find_opt idx_of_key key with
          | Some gi when rs.results.(gi) = None ->
              rs.results.(gi) <- Some (it, outcome, wall);
              rs.remaining <- rs.remaining - 1;
              t.tot_local <- t.tot_local + 1;
              (match outcome with Hole _ -> t.tot_holes <- t.tot_holes + 1 | Done _ -> ())
          | _ -> t.tot_dups <- t.tot_dups + 1)
        completed;
      Condition.broadcast t.work)

let run t ~local items =
  if items = [] then []
  else begin
    Mutex.protect t.mu (fun () ->
        if t.running then invalid_arg "Dispatch.run: batch already in flight";
        t.running <- true);
    Fun.protect ~finally:(fun () -> Mutex.protect t.mu (fun () -> t.running <- false))
    @@ fun () ->
    let chunks, all = chunks_of_items t items in
    let total = Array.length all in
    let rs =
      {
        all;
        results = Array.make total None;
        localized = Array.make total false;
        remaining = total;
        queue = Queue.create ();
        localq = [];
        inflight = [];
        conns = [];
        next_token = 0;
        stop = false;
        floor_breached = false;
      }
    in
    let idx_of_key = Hashtbl.create total in
    Array.iter (fun ((key, _), gi) -> Hashtbl.replace idx_of_key key gi) all;
    List.iter
      (fun ck -> Queue.push { qe_chunk = ck; qe_not_on = None; qe_hedge = false } rs.queue)
      chunks;
    Array.iter (fun h -> h.h_probed <- false) t.hosts;
    let domains = ref [] in
    Array.iter
      (fun h ->
        for _ = 1 to t.policy.window do
          domains := Domain.spawn (fun () -> runner t rs h) :: !domains
        done;
        domains := Domain.spawn (fun () -> prober t rs h) :: !domains)
      t.hosts;
    let rec drive () =
      match Mutex.protect t.mu (fun () -> decide t rs) with
      | D_done -> ()
      | D_wait ->
          Unix.sleepf 0.02;
          drive ()
      | D_local batch ->
          absorb_local t rs idx_of_key (local batch);
          drive ()
    in
    Fun.protect
      ~finally:(fun () ->
        let conns =
          Mutex.protect t.mu (fun () ->
              rs.stop <- true;
              Condition.broadcast t.work;
              rs.conns)
        in
        (* unblock reads parked on dead hosts before joining *)
        List.iter (fun c -> try c.c_abort () with _ -> ()) conns;
        List.iter Domain.join !domains;
        List.iter (fun c -> try c.c_close () with _ -> ()) conns)
      drive;
    Array.to_list
      (Array.map
         (function Some r -> r | None -> assert false (* remaining = 0 covers every slot *))
         rs.results)
  end

(* ---------------- telemetry ---------------- *)

let percentile p xs =
  match xs with
  | [] -> 0.
  | _ ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let n = Array.length a in
      let i = int_of_float ((float_of_int (n - 1) *. p) +. 0.5) in
      a.(max 0 (min (n - 1) i))

let host_stats t =
  Mutex.protect t.mu (fun () ->
      Array.to_list
        (Array.map
           (fun h ->
             {
               hs_addr = h.h_addr;
               hs_healthy = h.h_healthy;
               hs_sent = h.h_sent;
               hs_completed = h.h_completed;
               hs_jobs = h.h_jobs;
               hs_retried = h.h_retried;
               hs_hedged = h.h_hedged;
               hs_quarantined = h.h_quarantined;
               hs_failures = h.h_failures;
               hs_rtt_p50_ms = 1000. *. percentile 0.50 h.h_rtts;
               hs_rtt_p95_ms = 1000. *. percentile 0.95 h.h_rtts;
             })
           t.hosts))

let totals t =
  Mutex.protect t.mu (fun () ->
      {
        t_remote_jobs = Array.fold_left (fun a h -> a + h.h_jobs) 0 t.hosts;
        t_local_jobs = t.tot_local;
        t_holes = t.tot_holes;
        t_hedges = t.tot_hedges;
        t_hedge_wins = t.tot_hedge_wins;
        t_requeues = t.tot_requeues;
        t_duplicate_results = t.tot_dups;
      }
  )

let healthy_hosts t =
  Mutex.protect t.mu (fun () ->
      Array.fold_left (fun a h -> if h.h_healthy then a + 1 else a) 0 t.hosts)

let summary_lines t =
  let tot = totals t in
  let hosts = host_stats t in
  let head =
    Printf.sprintf
      "dispatch: %d host(s) (%d healthy), %d remote / %d local jobs, %d holes, %d requeues, %d hedges (%d won), %d dup results"
      (List.length hosts) (healthy_hosts t) tot.t_remote_jobs tot.t_local_jobs tot.t_holes
      tot.t_requeues tot.t_hedges tot.t_hedge_wins tot.t_duplicate_results
  in
  head
  :: List.map
       (fun h ->
         Printf.sprintf
           "  %s [%s]: sent %d, completed %d, jobs %d, retried %d, hedged %d, quarantined %d, failures %d, rtt p50 %.1fms p95 %.1fms"
           h.hs_addr
           (if h.hs_healthy then "healthy" else "quarantined")
           h.hs_sent h.hs_completed h.hs_jobs h.hs_retried h.hs_hedged h.hs_quarantined
           h.hs_failures h.hs_rtt_p50_ms h.hs_rtt_p95_ms)
       hosts
