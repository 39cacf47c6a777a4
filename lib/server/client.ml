(** Synchronous client for the serving protocol: one socket, one
    request in flight — the load generator opens many clients for
    concurrency.  Request ids are assigned per client and checked
    against the response, so a desynchronized stream fails loudly
    instead of mis-attributing verdicts.

    A failed operation drops the socket and raises; the next operation
    connects afresh.  The client never retries on its own: every
    failure reaches the caller. *)

type endpoint = Unix_ep of string | Tcp_ep of string * int

type t = {
  endpoint : endpoint;
  mutable fd : Unix.file_descr option;
  mutable next_rid : int;
  timeout : float;  (** per-socket send/receive timeout; [0.] = none *)
}

let establish endpoint timeout =
  (* a peer may die between our frames; that must surface as EPIPE (a
     Unix_error), not terminate the process *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let fd =
    match endpoint with
    | Unix_ep path ->
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        (try Unix.connect fd (Unix.ADDR_UNIX path)
         with e ->
           Unix.close fd;
           raise e);
        fd
    | Tcp_ep (host, port) ->
        let addr =
          try Unix.inet_addr_of_string host
          with Failure _ -> (Unix.gethostbyname host).Unix.h_addr_list.(0)
        in
        let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        (try
           Unix.connect fd (Unix.ADDR_INET (addr, port));
           Unix.setsockopt fd Unix.TCP_NODELAY true
         with e ->
           Unix.close fd;
           raise e);
        fd
  in
  if timeout > 0. then begin
    (try Unix.setsockopt_float fd Unix.SO_RCVTIMEO timeout with Unix.Unix_error _ -> ());
    (try Unix.setsockopt_float fd Unix.SO_SNDTIMEO timeout with Unix.Unix_error _ -> ())
  end;
  fd

let connect ?(timeout = 0.) endpoint =
  (* eager connect: callers expect an unreachable server to fail here *)
  { endpoint; fd = Some (establish endpoint timeout); next_rid = 1; timeout }

let connect_unix ?timeout path = connect ?timeout (Unix_ep path)
let connect_tcp ?timeout host port = connect ?timeout (Tcp_ep (host, port))

let drop t =
  (match t.fd with
  | Some fd -> ( try Unix.close fd with Unix.Unix_error _ -> ())
  | None -> ());
  t.fd <- None

let close = drop

let ensure t =
  match t.fd with
  | Some fd -> fd
  | None ->
      let fd = establish t.endpoint t.timeout in
      t.fd <- Some fd;
      fd

(* One operation: any transport-level failure tears the socket down, so
   no stale response can be mis-attributed to a later request. *)
let guarded t op =
  try op ()
  with (Protocol.Closed | Unix.Unix_error _ | Sys_error _ | Failure _) as e ->
    drop t;
    raise e

let fresh_rid t =
  let rid = t.next_rid in
  t.next_rid <- rid + 1;
  rid

let read_reply fd ~rid =
  match Protocol.read_frame fd with
  | None -> raise Protocol.Closed
  | Some payload -> (
      match Protocol.decode_response payload with
      | Error msg -> failwith ("malformed response: " ^ msg)
      | Ok resp ->
          (* rrid 0 = a pre-decode failure on the server: it could not
             attribute the error to a request id *)
          if resp.Protocol.rrid <> rid && resp.Protocol.rrid <> 0 then
            failwith
              (Printf.sprintf "response id %d does not answer request %d"
                 resp.Protocol.rrid rid);
          resp.Protocol.reply)

(** Send one request body; blocks for the matching response and returns
    its reply.  Raises [Protocol.Closed] if the server hung up and
    [Failure] on a malformed or mismatched response. *)
let call t body =
  guarded t (fun () ->
      let fd = ensure t in
      let rid = fresh_rid t in
      Protocol.write_frame fd (Protocol.encode_request { Protocol.rid; body });
      read_reply fd ~rid)

let hello t client_name = call t (Protocol.Hello client_name)
let ping t = call t Protocol.Ping
let stats t = call t Protocol.Stats
let drain t = call t Protocol.Drain
let register t ir_source = call t (Protocol.Register ir_source)
let run t params = call t (Protocol.Run params)
