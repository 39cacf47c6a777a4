(** Serializable experiment-run requests (the engine's job model).

    A run of the reproduction is a pure function of its spec: workload,
    scale, seeds, budget and variant fully determine the classification
    (DESIGN.md §6 — splitmix64-seeded, deterministic interpreter).  The
    spec therefore doubles as a cache identity: [hash] folds a canonical
    rendering of every field together with a code-version salt, so
    results persisted by an older build of the transforms are never
    served by a newer one. *)

module Config = Dpmr_core.Config
module Experiment = Dpmr_fi.Experiment
module Inject = Dpmr_fi.Inject
module Outcome = Dpmr_vm.Outcome

type spec = {
  workload : string;  (** name in the [Workloads] registry *)
  scale : int;
  exp_seed : int64;  (** seed of the golden/reference run *)
  run_seed : int64;  (** seed of the measured run *)
  budget : int64;  (** cost budget (~20x golden, §3.6) *)
  variant : Experiment.variant;
}

(** Bump whenever the transforms, VM, cost model, allocator or workload
    builders change semantics: the salt is folded into every content
    hash, so bumping it invalidates all previously cached results. *)
let default_salt = "dpmr-engine/2"

let make (e : Experiment.t) ~workload ~scale ~run_seed variant =
  {
    workload;
    scale;
    exp_seed = e.Experiment.seed;
    run_seed;
    budget = e.Experiment.budget;
    variant;
  }

(* ---------------- canonical rendering ---------------- *)

let kind_repr = function
  | Inject.Heap_array_resize pct -> Printf.sprintf "resize-%d" pct
  | Inject.Immediate_free -> "free"
  | Inject.Off_by_one -> "off-by-one"
  | Inject.Wild_store off -> Printf.sprintf "wild-store-%d" off

let site_repr (s : Inject.site) =
  Printf.sprintf "%s:%s:%d" s.Inject.func s.Inject.block s.Inject.index

(* [Config.name] is for display (it rounds [Static] fractions); the cache
   identity needs full fidelity, so floats render as hex and temporal
   masks as the exact 64-bit pattern. *)
let config_repr (c : Config.t) =
  let diversity =
    match c.Config.diversity with
    | Config.No_diversity -> "no-diversity"
    | Config.Pad_malloc n -> Printf.sprintf "pad-malloc-%d" n
    | Config.Zero_before_free -> "zero-before-free"
    | Config.Rearrange_heap -> "rearrange-heap"
    | Config.Pad_alloca n -> Printf.sprintf "pad-alloca-%d" n
  in
  let policy =
    match c.Config.policy with
    | Config.All_loads -> "all-loads"
    | Config.Temporal m -> Printf.sprintf "temporal-%Lx" m
    | Config.Static f -> Printf.sprintf "static-%h" f
  in
  (* N-version axes append only when non-default, so every pre-N-version
     repr (and therefore its key) is reproduced byte for byte *)
  let nversion =
    if
      c.Config.replicas = 1 && c.Config.families = []
      && c.Config.vote = Config.Any_mismatch
    then ""
    else
      Printf.sprintf ",n=%d,fam=%s,vote=%s" c.Config.replicas
        (String.concat "+" c.Config.families)
        (Config.vote_name c.Config.vote)
  in
  Printf.sprintf "%s,%s,%s,%Ld%s" (Config.mode_name c.Config.mode) diversity policy
    c.Config.seed nversion

let variant_repr = function
  | Experiment.Golden -> "golden"
  | Experiment.Fi_stdapp (kind, site) ->
      Printf.sprintf "fi-stdapp(%s@%s)" (kind_repr kind) (site_repr site)
  | Experiment.Nofi_dpmr cfg -> Printf.sprintf "nofi-dpmr(%s)" (config_repr cfg)
  | Experiment.Fi_dpmr (cfg, kind, site) ->
      Printf.sprintf "fi-dpmr(%s;%s@%s)" (config_repr cfg) (kind_repr kind)
        (site_repr site)

let repr s =
  Printf.sprintf "w=%s;scale=%d;eseed=%Ld;rseed=%Ld;budget=%Ld;v=%s" s.workload
    s.scale s.exp_seed s.run_seed s.budget (variant_repr s.variant)

(* ---------------- content hash (FNV-1a 64) ---------------- *)

let fnv1a64 str =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h 0x100000001b3L)
    str;
  !h

let hash ?(salt = default_salt) s =
  Printf.sprintf "%016Lx" (fnv1a64 (salt ^ "\x00" ^ repr s))

(* ---------------- cache-line (de)serialization ---------------- *)

type entry = {
  key : string;
  salt : string;
  spec_repr : string;
  cls : Experiment.classification;
}

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let classification_fields (c : Experiment.classification) =
  Printf.sprintf
    "\"sf\":%b,\"co\":%b,\"ndet\":%b,\"ddet\":%b,\"timeout\":%b,\"t2d\":%s,\"cost\":%Ld,\"peak_heap\":%d"
    c.Experiment.sf c.Experiment.co c.Experiment.ndet c.Experiment.ddet
    c.Experiment.timeout
    (match c.Experiment.t2d with Some t -> Int64.to_string t | None -> "null")
    c.Experiment.cost c.Experiment.peak_heap

let entry_to_line e =
  Printf.sprintf "{\"key\":\"%s\",\"salt\":\"%s\",\"spec\":\"%s\",%s}"
    (json_escape e.key) (json_escape e.salt) (json_escape e.spec_repr)
    (classification_fields e.cls)

(* Minimal parser for the flat JSON objects [entry_to_line] emits: string,
   bool, integer and null values only.  Returns [None] on any malformed
   input — a corrupt cache line is treated as a miss, never an error. *)
let parse_flat_object line =
  let n = String.length line in
  let pos = ref 0 in
  let exception Bad in
  try
    let skip_ws () = while !pos < n && (line.[!pos] = ' ' || line.[!pos] = '\t') do incr pos done in
    let expect c = skip_ws (); if !pos < n && line.[!pos] = c then incr pos else raise Bad in
    let parse_string () =
      expect '"';
      let b = Buffer.create 16 in
      let rec go () =
        if !pos >= n then raise Bad
        else
          match line.[!pos] with
          | '"' -> incr pos
          | '\\' ->
              if !pos + 1 >= n then raise Bad;
              (match line.[!pos + 1] with
              | '"' -> Buffer.add_char b '"'
              | '\\' -> Buffer.add_char b '\\'
              | 'n' -> Buffer.add_char b '\n'
              | 't' -> Buffer.add_char b '\t'
              | 'u' ->
                  if !pos + 5 >= n then raise Bad;
                  let code = int_of_string ("0x" ^ String.sub line (!pos + 2) 4) in
                  Buffer.add_char b (Char.chr (code land 0xff));
                  pos := !pos + 4
              | _ -> raise Bad);
              pos := !pos + 2;
              go ()
          | c ->
              Buffer.add_char b c;
              incr pos;
              go ()
      in
      go ();
      Buffer.contents b
    in
    let parse_value () =
      skip_ws ();
      if !pos >= n then raise Bad
      else if line.[!pos] = '"' then `String (parse_string ())
      else
        let start = !pos in
        while
          !pos < n && (match line.[!pos] with 'a' .. 'z' | '0' .. '9' | '-' -> true | _ -> false)
        do
          incr pos
        done;
        match String.sub line start (!pos - start) with
        | "true" -> `Bool true
        | "false" -> `Bool false
        | "null" -> `Null
        | num -> ( match Int64.of_string_opt num with Some i -> `Int i | None -> raise Bad)
    in
    expect '{';
    let fields = ref [] in
    let rec members () =
      let k = (skip_ws (); parse_string ()) in
      expect ':';
      let v = parse_value () in
      fields := (k, v) :: !fields;
      skip_ws ();
      if !pos < n && line.[!pos] = ',' then (incr pos; members ()) else expect '}'
    in
    skip_ws ();
    if !pos < n && line.[!pos] = '}' then incr pos else members ();
    Some !fields
  with Bad | Invalid_argument _ | Failure _ -> None

let entry_of_line line =
  match parse_flat_object line with
  | None -> None
  | Some fields -> (
      let str k = match List.assoc_opt k fields with Some (`String s) -> Some s | _ -> None in
      let boolean k = match List.assoc_opt k fields with Some (`Bool b) -> Some b | _ -> None in
      let int64 k = match List.assoc_opt k fields with Some (`Int i) -> Some i | _ -> None in
      let opt_int64 k =
        match List.assoc_opt k fields with
        | Some (`Int i) -> Some (Some i)
        | Some `Null -> Some None
        | _ -> None
      in
      match
        ( str "key", str "salt", str "spec", boolean "sf", boolean "co", boolean "ndet",
          boolean "ddet", boolean "timeout", opt_int64 "t2d", int64 "cost",
          int64 "peak_heap" )
      with
      | ( Some key, Some salt, Some spec_repr, Some sf, Some co, Some ndet, Some ddet,
          Some timeout, Some t2d, Some cost, Some peak ) ->
          Some
            {
              key;
              salt;
              spec_repr;
              cls =
                {
                  Experiment.sf;
                  co;
                  ndet;
                  ddet;
                  timeout;
                  t2d;
                  cost;
                  peak_heap = Int64.to_int peak;
                };
            }
      | _ -> None)
