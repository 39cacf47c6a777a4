(* In-memory span recorder for the traced run: spans are kept in a list
   while the run goes and written out as Chrome trace-event JSON at the
   end.  A span's parent is the span open around it on the same track;
   self time is a span's duration minus the durations of its children,
   which never overlap (the layer replay is serial). *)

type span = {
  id : int;
  parent : int;  (** 0 = a root span *)
  name : string;
  cat : string;
  tid : int;
  t0 : float;
  mutable t1 : float;
  mutable args : (string * float) list;
}

type t = { mutable spans : span list; mutable next : int; mutable stack : int list }

let create () = { spans = []; next = 1; stack = [] }

let record t ?(parent = 0) ?(cat = "layer") ?(tid = 1) ?(args = []) name ~t0 ~t1 =
  let id = t.next in
  t.next <- id + 1;
  t.spans <- { id; parent; name; cat; tid; t0; t1; args } :: t.spans;
  id

(** Run [f] inside a span nested in the innermost open one. *)
let with_span t ?(cat = "layer") ?(args = []) name f =
  let parent = match t.stack with p :: _ -> p | [] -> 0 in
  let id = record t ~parent ~cat ~args name ~t0:(Util.now ()) ~t1:nan in
  let s = List.hd t.spans in
  t.stack <- id :: t.stack;
  Fun.protect
    ~finally:(fun () ->
      s.t1 <- Util.now ();
      t.stack <- List.tl t.stack)
    f

let set_args t args = match t.spans with s :: _ -> s.args <- args @ s.args | [] -> ()
let dur s = s.t1 -. s.t0

(** Per-name rows: (name, count, total seconds, self seconds). *)
let layer_rows t =
  let child = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        Hashtbl.replace child s.parent
          (dur s +. Option.value (Hashtbl.find_opt child s.parent) ~default:0.))
    t.spans;
  let rows = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let self = dur s -. Option.value (Hashtbl.find_opt child s.id) ~default:0. in
      let n, tot, slf =
        Option.value (Hashtbl.find_opt rows s.name) ~default:(0, 0., 0.)
      in
      Hashtbl.replace rows s.name (n + 1, tot +. dur s, slf +. self))
    t.spans;
  Hashtbl.fold (fun name (n, tot, slf) acc -> (name, n, tot, slf) :: acc) rows []
  |> List.sort compare

let total t name =
  List.fold_left (fun a s -> if s.name = name then a +. dur s else a) 0. t.spans

let count t name = List.length (List.filter (fun s -> s.name = name) t.spans)

(** Chrome trace-event JSON ("X" complete events, microseconds). *)
let to_chrome_json t =
  let spans = List.rev t.spans in
  let base = List.fold_left (fun a s -> Float.min a s.t0) infinity spans in
  let us x = Printf.sprintf "%.3f" ((x -. if base = infinity then 0. else base) *. 1e6) in
  let b = Buffer.create 65536 in
  Buffer.add_string b "{\"traceEvents\":[\n";
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_string b ",\n";
      Buffer.add_string b "{\"name\":\"";
      Dpmr_trace.Export.escape b s.name;
      Buffer.add_string b
        (Printf.sprintf
           "\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%s,\"dur\":%s,\"pid\":1,\"tid\":%d,\"args\":{\"id\":%d,\"parent\":%d"
           s.cat (us s.t0)
           (Printf.sprintf "%.3f" (dur s *. 1e6))
           s.tid s.id s.parent);
      List.iter
        (fun (k, v) ->
          Buffer.add_string b
            (Printf.sprintf ",\"%s\":%s" k
               (if Float.is_finite v then Printf.sprintf "%.17g" v else "null")))
        s.args;
      Buffer.add_string b "}}")
    spans;
  Buffer.add_string b "\n],\"displayTimeUnit\":\"ms\"}\n";
  Buffer.contents b

(** Write the trace and validate it with the repository's own trace-event
    schema check; returns the number of events. *)
let write_validated t path =
  let json = to_chrome_json t in
  Util.write_file path json;
  match Dpmr_trace.Json_check.validate_trace json with
  | Ok n -> n
  | Error msg -> Util.die "trace %s failed validation: %s" path msg
