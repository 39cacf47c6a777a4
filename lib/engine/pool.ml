(** Fixed-size resident domain worker pool with deterministic result
    ordering.

    The worker domains are spawned by the first batch and then park on a
    condition variable between batches, so repeated batches — an engine
    reused across figures, or a daemon serving requests — pay domain
    spawn and per-domain warmup (DLS-cached experiment contexts, lowered
    programs) once.  A pool of size 1 never spawns: it runs each batch
    on the calling domain.

    Workers pull tasks from a mutex-protected queue and write results
    into per-index slots, so the returned list is ordered by input
    position regardless of completion order — the property that keeps
    parallel engine output byte-identical to serial output. *)

let default_size () = Domain.recommended_domain_count ()

type t = {
  size : int;
  queue : (unit -> unit) Queue.t;
  mu : Mutex.t;
  work : Condition.t;  (** signalled when a task is queued or on shutdown *)
  mutable stopping : bool;
  mutable domains : unit Domain.t list;  (** [] until the first batch *)
}

let size t = t.size

let worker_loop t =
  let rec loop () =
    let task =
      Mutex.protect t.mu (fun () ->
          while Queue.is_empty t.queue && not t.stopping do
            Condition.wait t.work t.mu
          done;
          if Queue.is_empty t.queue then None else Some (Queue.pop t.queue))
    in
    match task with
    | None -> () (* stopping and drained *)
    | Some task ->
        task ();
        loop ()
  in
  loop ()

let create ?(size = default_size ()) () =
  {
    size = max 1 size;
    queue = Queue.create ();
    mu = Mutex.create ();
    work = Condition.create ();
    stopping = false;
    domains = [];
  }

let shutdown t =
  let domains =
    Mutex.protect t.mu (fun () ->
        t.stopping <- true;
        Condition.broadcast t.work;
        let ds = t.domains in
        t.domains <- [];
        ds)
  in
  List.iter Domain.join domains

(* Tasks never let an exception escape into the worker loop: each slot
   captures [Ok] or [Error (exn, backtrace)] and the caller re-raises
   (or not) on its own domain. *)
let attempt f x =
  try Ok (f x)
  with e ->
    let bt = Printexc.get_raw_backtrace () in
    Error (e, bt)

let serial_batch ?progress f xs =
  let n = List.length xs in
  List.mapi
    (fun i x ->
      let r = attempt f x in
      (match progress with Some p -> p ~done_:(i + 1) ~total:n | None -> ());
      r)
    xs

let pooled_batch t ?progress f xs =
  let n = List.length xs in
  let input = Array.of_list xs in
  let results = Array.make n None in
  let completed = ref 0 in
  let done_mu = Mutex.create () in
  let done_cond = Condition.create () in
  let task i () =
    (* distinct slots: no lock needed for the write itself *)
    results.(i) <- Some (attempt f input.(i));
    Mutex.protect done_mu (fun () ->
        incr completed;
        (match progress with Some p -> p ~done_:!completed ~total:n | None -> ());
        Condition.signal done_cond)
  in
  Mutex.protect t.mu (fun () ->
      if t.stopping then invalid_arg "Pool.map: the pool is shut down";
      (* the first batch starts the workers; holding [t.mu] makes this
         safe against batches submitted concurrently from other domains *)
      if t.domains = [] then
        t.domains <- List.init t.size (fun _ -> Domain.spawn (fun () -> worker_loop t));
      for i = 0 to n - 1 do
        Queue.push (task i) t.queue
      done;
      Condition.broadcast t.work);
  Mutex.protect done_mu (fun () ->
      while !completed < n do
        Condition.wait done_cond done_mu
      done);
  Array.to_list results
  |> List.map (function Some r -> r | None -> failwith "Pool.map: missing result")

let map_results t ?progress f xs =
  match xs with
  | [] -> []
  | _ when t.size = 1 -> serial_batch ?progress f xs
  | _ -> pooled_batch t ?progress f xs

let map t ?progress f xs =
  List.map
    (function Ok r -> r | Error (e, bt) -> Printexc.raise_with_backtrace e bt)
    (map_results t ?progress f xs)
