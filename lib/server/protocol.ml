(** Wire protocol of the DPMR serving daemon.

    Frames are length-prefixed: a 4-byte big-endian payload length
    followed by the payload, one flat JSON object per frame — the same
    single-line convention as the result cache ([Job.parse_flat_object]
    parses both), so the protocol needs no JSON dependency and tolerates
    unknown fields.  Every payload carries the schema version in ["v"];
    a peer speaking a different version is answered with a [bad-request]
    error, never a parse failure.

    Requests reference programs by name: a built-in workload, or a
    content-addressed ["@ir/<hash>"] name minted by a [register]
    request carrying textual IR.  Variants are flat scalar fields using
    the canonical atoms of {!Config} and {!Inject} — the same atoms the
    cache identity ([Job.repr]) and the CLI read and write — so a
    request, its cache key and its batch-CLI equivalent can never
    disagree on what was asked. *)

module Config = Dpmr_core.Config
module Inject = Dpmr_fi.Inject
module Experiment = Dpmr_fi.Experiment
module Job = Dpmr_engine.Job

let version = 1

let max_frame = 16 * 1024 * 1024
(** Upper bound on one frame's payload: large enough for any IR program
    we ship, small enough to refuse a garbage length prefix. *)

(* ---------------- request / response model ---------------- *)

(** One detection-verdict request.  [golden] runs the untransformed
    program; [plain] injects without the DPMR transformation
    ([Fi_stdapp]); otherwise the config fields select the DPMR build.
    [site] indexes the deterministic [Inject.sites] list of the
    program; [site_ref] names the site outright (function, block,
    in-block index) and wins over [site] when present, so a client that
    already planned its sites needs no site-list resolution round-trip.
    [budget = 0L] means "resolve from the experiment context" (~20x the
    golden cost, the batch default).  [forensics] additionally runs the
    request under a trace sink and returns the corruption→detection
    report. *)
type run_params = {
  workload : string;
  scale : int;
  exp_seed : int64;
  run_seed : int64;
  budget : int64;
  golden : bool;
  plain : bool;
  kind : Inject.kind option;
  site : int;
  site_ref : Inject.site option;
  mode : Config.mode;
  diversity : Config.diversity;
  policy : Config.policy;
  cfg_seed : int64;
  replicas : int;  (** N-version replica count; 1 = the paper's design *)
  families : string list;  (** diversity-family names, registry-validated *)
  vote : Config.vote;
  forensics : bool;
}

let default_run =
  {
    workload = "art";
    scale = 1;
    exp_seed = 42L;
    run_seed = 42L;
    budget = 0L;
    golden = false;
    plain = false;
    kind = None;
    site = 0;
    site_ref = None;
    mode = Config.Sds;
    diversity = Config.No_diversity;
    policy = Config.All_loads;
    cfg_seed = 42L;
    replicas = 1;
    families = [];
    vote = Config.Any_mismatch;
    forensics = false;
  }

let config_of (p : run_params) =
  {
    Config.mode = p.mode;
    diversity = p.diversity;
    policy = p.policy;
    seed = p.cfg_seed;
    replicas = p.replicas;
    families = p.families;
    vote = p.vote;
  }

type body =
  | Hello of string  (** client identification, echoed in logs *)
  | Run of run_params
  | Register of string  (** textual IR; the response carries the minted name *)
  | Stats
  | Drain
  | Ping

type request = { rid : int; body : body }

type error_code =
  | Bad_request
  | Unknown_workload
  | Quota
  | Busy  (** admission refused: the daemon is at [--max-conns] *)
  | Failed  (** the supervisor gave up: deadline / retries exhausted / fatal *)
  | Draining
  | Internal

let error_code_to_string = function
  | Bad_request -> "bad-request"
  | Unknown_workload -> "unknown-workload"
  | Quota -> "quota"
  | Busy -> "busy"
  | Failed -> "failed"
  | Draining -> "draining"
  | Internal -> "internal"

let error_code_of_string = function
  | "bad-request" -> Some Bad_request
  | "unknown-workload" -> Some Unknown_workload
  | "quota" -> Some Quota
  | "busy" -> Some Busy
  | "failed" -> Some Failed
  | "draining" -> Some Draining
  | "internal" -> Some Internal
  | _ -> None

type verdict = {
  cls : Experiment.classification;
  cached : bool;  (** served from the federated result cache *)
  wall_us : int;  (** server-side handling time, microseconds *)
  vforensics : string option;  (** forensics report JSON, when requested *)
}

type reply =
  | Verdict of verdict
  | Registered of string  (** content-addressed program name *)
  | Stats_json of string  (** nested JSON, shipped as one string field *)
  | Ack of string
  | Error of error_code * string

type response = { rrid : int; reply : reply }

(* ---------------- encoding ---------------- *)

let esc = Dpmr_trace.Export.escaped

let encode_request { rid; body } =
  let b = Buffer.create 256 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  add "{\"v\":%d,\"id\":%d" version rid;
  (match body with
  | Hello client -> add ",\"t\":\"hello\",\"client\":\"%s\"" (esc client)
  | Register ir -> add ",\"t\":\"register\",\"ir\":\"%s\"" (esc ir)
  | Stats -> add ",\"t\":\"stats\""
  | Drain -> add ",\"t\":\"drain\""
  | Ping -> add ",\"t\":\"ping\""
  | Run p ->
      add ",\"t\":\"run\",\"workload\":\"%s\",\"scale\":%d" (esc p.workload) p.scale;
      add ",\"eseed\":%Ld,\"rseed\":%Ld,\"budget\":%Ld" p.exp_seed p.run_seed p.budget;
      add ",\"golden\":%b,\"plain\":%b" p.golden p.plain;
      add ",\"kind\":%s"
        (match p.kind with Some k -> Printf.sprintf "\"%s\"" (Inject.kind_atom k) | None -> "null");
      add ",\"site\":%d" p.site;
      (match p.site_ref with
      | None -> ()
      | Some s ->
          add ",\"sfunc\":\"%s\",\"sblock\":\"%s\",\"sidx\":%d" (esc s.Inject.func)
            (esc s.Inject.block) s.Inject.index);
      add ",\"mode\":\"%s\",\"diversity\":\"%s\",\"policy\":\"%s\",\"cseed\":%Ld"
        (Config.mode_name p.mode)
        (Config.diversity_name p.diversity)
        (Config.policy_atom p.policy) p.cfg_seed;
      (* N-version fields travel only when non-default, each on its own,
         so single-replica frames are byte-identical to the pre-N-version
         wire format *)
      let c = config_of p and d = Config.default in
      if not (Config.nversion_default c) then begin
        if c.replicas <> d.replicas then add ",\"replicas\":%d" c.replicas;
        if c.families <> d.families then
          add ",\"families\":\"%s\"" (esc (Config.families_atom c.families));
        if c.vote <> d.vote then add ",\"vote\":\"%s\"" (Config.vote_name c.vote)
      end;
      add ",\"forensics\":%b" p.forensics);
  Buffer.add_char b '}';
  Buffer.contents b

let encode_response { rrid; reply } =
  let b = Buffer.create 256 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  add "{\"v\":%d,\"id\":%d" version rrid;
  (match reply with
  | Ack msg -> add ",\"t\":\"ok\",\"msg\":\"%s\"" (esc msg)
  | Registered name -> add ",\"t\":\"registered\",\"name\":\"%s\"" (esc name)
  | Stats_json json -> add ",\"t\":\"stats\",\"json\":\"%s\"" (esc json)
  | Error (code, msg) ->
      add ",\"t\":\"error\",\"code\":\"%s\",\"msg\":\"%s\"" (error_code_to_string code)
        (esc msg)
  | Verdict v ->
      add ",\"t\":\"verdict\",%s" (Job.classification_fields v.cls);
      add ",\"cached\":%b,\"wall_us\":%d" v.cached v.wall_us;
      add ",\"forensics\":%s"
        (match v.vforensics with
        | Some j -> Printf.sprintf "\"%s\"" (esc j)
        | None -> "null"));
  Buffer.add_char b '}';
  Buffer.contents b

(* ---------------- decoding ---------------- *)

type 'a parse = ('a, string) result

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

let fields_of line =
  match Job.parse_flat_object line with
  | Some fields -> Ok fields
  | None -> Error "malformed frame (not a flat JSON object)"

let str fields k =
  match List.assoc_opt k fields with
  | Some (`String s) -> Ok s
  | _ -> Error (Printf.sprintf "missing string field %S" k)

let int_field fields k ~default =
  match List.assoc_opt k fields with
  | Some (`Int i) -> Ok (Int64.to_int i)
  | None -> Ok default
  | _ -> Error (Printf.sprintf "field %S must be an integer" k)

let int64_field fields k ~default =
  match List.assoc_opt k fields with
  | Some (`Int i) -> Ok i
  | None -> Ok default
  | _ -> Error (Printf.sprintf "field %S must be an integer" k)

let bool_field fields k ~default =
  match List.assoc_opt k fields with
  | Some (`Bool b) -> Ok b
  | None -> Ok default
  | _ -> Error (Printf.sprintf "field %S must be a boolean" k)

let str_field fields k ~default =
  match List.assoc_opt k fields with
  | Some (`String s) -> Ok s
  | None -> Ok default
  | _ -> Error (Printf.sprintf "field %S must be a string" k)

let opt_str fields k =
  match List.assoc_opt k fields with
  | Some (`String s) -> Ok (Some s)
  | Some `Null | None -> Ok None
  | _ -> Error (Printf.sprintf "field %S must be a string or null" k)

let opt_int64 fields k =
  match List.assoc_opt k fields with
  | Some (`Int i) -> Ok (Some i)
  | Some `Null | None -> Ok None
  | _ -> Error (Printf.sprintf "field %S must be an integer or null" k)

let check_version fields =
  match List.assoc_opt "v" fields with
  | Some (`Int v) when Int64.to_int v = version -> Ok ()
  | Some (`Int v) ->
      Error (Printf.sprintf "protocol version %Ld not supported (this end speaks %d)" v version)
  | _ -> Error "missing protocol version field \"v\""

(* an optional string field holding a canonical atom *)
let atom_field fields k parse ~default =
  match List.assoc_opt k fields with
  | Some (`String s) -> parse s
  | None -> Ok default
  | _ -> Error (Printf.sprintf "field %S must be a string" k)

let decode_run fields =
  let* workload = str_field fields "workload" ~default:default_run.workload in
  let* scale = int_field fields "scale" ~default:default_run.scale in
  let* exp_seed = int64_field fields "eseed" ~default:default_run.exp_seed in
  let* run_seed = int64_field fields "rseed" ~default:exp_seed in
  let* budget = int64_field fields "budget" ~default:0L in
  let* golden = bool_field fields "golden" ~default:false in
  let* plain = bool_field fields "plain" ~default:false in
  let* kind_s = opt_str fields "kind" in
  let* kind =
    match kind_s with
    | None | Some "none" -> Ok None
    | Some s -> Result.map Option.some (Inject.kind_of_atom s)
  in
  let* site = int_field fields "site" ~default:0 in
  let* sfunc = opt_str fields "sfunc" in
  let* site_ref =
    match sfunc with
    | None -> Ok None
    | Some func ->
        let* block = str fields "sblock" in
        let* index = int_field fields "sidx" ~default:0 in
        Ok (Some { Inject.func; block; index })
  in
  let d = default_run in
  let* mode = atom_field fields "mode" Config.mode_of_name ~default:d.mode in
  let* diversity = atom_field fields "diversity" Config.diversity_of_name ~default:d.diversity in
  let* policy = atom_field fields "policy" Config.policy_of_atom ~default:d.policy in
  let* cfg_seed = int64_field fields "cseed" ~default:exp_seed in
  let* replicas = int_field fields "replicas" ~default:d.replicas in
  let* replicas = Config.check_replicas replicas in
  let* families_s = str_field fields "families" ~default:"" in
  let families = Config.families_of_atom families_s in
  let* vote = atom_field fields "vote" Config.vote_of_name ~default:d.vote in
  let* forensics = bool_field fields "forensics" ~default:false in
  Ok
    {
      workload;
      scale;
      exp_seed;
      run_seed;
      budget;
      golden;
      plain;
      kind;
      site;
      site_ref;
      mode;
      diversity;
      policy;
      cfg_seed;
      replicas;
      families;
      vote;
      forensics;
    }

let decode_request line =
  let* fields = fields_of line in
  let* () = check_version fields in
  let* rid = int_field fields "id" ~default:0 in
  let* t = str fields "t" in
  let* body =
    match t with
    | "hello" ->
        let* client = str_field fields "client" ~default:"" in
        Ok (Hello client)
    | "register" ->
        let* ir = str fields "ir" in
        Ok (Register ir)
    | "stats" -> Ok Stats
    | "drain" -> Ok Drain
    | "ping" -> Ok Ping
    | "run" ->
        let* p = decode_run fields in
        Ok (Run p)
    | other -> Error (Printf.sprintf "unknown request type %S" other)
  in
  Ok { rid; body }

let decode_response line =
  let* fields = fields_of line in
  let* () = check_version fields in
  let* rrid = int_field fields "id" ~default:0 in
  let* t = str fields "t" in
  let* reply =
    match t with
    | "ok" ->
        let* msg = str_field fields "msg" ~default:"" in
        Ok (Ack msg)
    | "registered" ->
        let* name = str fields "name" in
        Ok (Registered name)
    | "stats" ->
        let* json = str fields "json" in
        Ok (Stats_json json)
    | "error" ->
        let* code_s = str fields "code" in
        let* code =
          Option.to_result ~none:(Printf.sprintf "bad error code %S" code_s)
            (error_code_of_string code_s)
        in
        let* msg = str_field fields "msg" ~default:"" in
        Ok (Error (code, msg))
    | "verdict" ->
        let* sf = bool_field fields "sf" ~default:false in
        let* co = bool_field fields "co" ~default:false in
        let* ndet = bool_field fields "ndet" ~default:false in
        let* ddet = bool_field fields "ddet" ~default:false in
        let* timeout = bool_field fields "timeout" ~default:false in
        let* t2d = opt_int64 fields "t2d" in
        let* cost = int64_field fields "cost" ~default:0L in
        let* peak_heap = int_field fields "peak_heap" ~default:0 in
        let* cached = bool_field fields "cached" ~default:false in
        let* wall_us = int_field fields "wall_us" ~default:0 in
        let* vforensics = opt_str fields "forensics" in
        Ok
          (Verdict
             {
               cls = { Experiment.sf; co; ndet; ddet; timeout; t2d; cost; peak_heap };
               cached;
               wall_us;
               vforensics;
             })
    | other -> Error (Printf.sprintf "unknown response type %S" other)
  in
  Ok { rrid; reply }

(* ---------------- framing ---------------- *)

exception Closed

let rec write_all fd buf off len =
  if len > 0 then begin
    let n = Unix.write fd buf off len in
    write_all fd buf (off + n) (len - n)
  end

let write_frame fd payload =
  let n = String.length payload in
  if n > max_frame then invalid_arg "Protocol.write_frame: frame too large";
  (* one buffer, one write: a frame never interleaves with another
     writer's bytes as long as each frame has a single writer *)
  let buf = Bytes.create (4 + n) in
  Bytes.set_uint8 buf 0 ((n lsr 24) land 0xff);
  Bytes.set_uint8 buf 1 ((n lsr 16) land 0xff);
  Bytes.set_uint8 buf 2 ((n lsr 8) land 0xff);
  Bytes.set_uint8 buf 3 (n land 0xff);
  Bytes.blit_string payload 0 buf 4 n;
  write_all fd buf 0 (4 + n)

let read_exact fd len =
  let buf = Bytes.create len in
  let rec go off =
    if off = len then buf
    else
      let n = Unix.read fd buf off (len - off) in
      if n = 0 then raise Closed else go (off + n)
  in
  go 0

(** [None] on a clean EOF at a frame boundary; raises {!Closed} on EOF
    mid-frame and [Failure] on an over-limit length prefix. *)
let read_frame fd =
  match read_exact fd 4 with
  | exception Closed -> None
  | hdr ->
      let n =
        (Bytes.get_uint8 hdr 0 lsl 24)
        lor (Bytes.get_uint8 hdr 1 lsl 16)
        lor (Bytes.get_uint8 hdr 2 lsl 8)
        lor Bytes.get_uint8 hdr 3
      in
      if n > max_frame then failwith "Protocol.read_frame: frame length exceeds limit";
      Some (Bytes.to_string (read_exact fd n))
