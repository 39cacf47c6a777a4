(* Process, clock, file and statistics helpers shared by the workloads. *)

let now = Unix.gettimeofday

let cpu_now () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let nproc () = Domain.recommended_domain_count ()

let die fmt = Printf.ksprintf (fun m -> prerr_endline ("perfbench: " ^ m); exit 1) fmt

(* ---------------- files ---------------- *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s = Out_channel.with_open_bin path (fun oc -> output_string oc s)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(** A fresh, empty directory. *)
let fresh_dir path =
  rm_rf path;
  mkdir_p path;
  path

(* ---------------- /proc ---------------- *)

(** Peak resident set of a process in MiB ([VmHWM]). *)
let peak_rss_mb ?(pid = "self") () =
  let status = read_file (Printf.sprintf "/proc/%s/status" pid) in
  let kb =
    List.find_map
      (fun line ->
        match String.split_on_char ':' line with
        | [ "VmHWM"; v ] ->
            Scanf.sscanf_opt (String.trim v) "%d kB" Fun.id
        | _ -> None)
      (String.split_on_char '\n' status)
  in
  match kb with
  | Some kb -> float_of_int kb /. 1024.
  | None -> die "no VmHWM in /proc/%s/status" pid

(** User plus system CPU seconds of another process. *)
let proc_cpu_s pid =
  let stat = read_file (Printf.sprintf "/proc/%d/stat" pid) in
  (* fields after the parenthesised command name; utime and stime are
     fields 14 and 15 of the whole line *)
  let rest =
    String.sub stat (String.rindex stat ')' + 2)
      (String.length stat - String.rindex stat ')' - 2)
  in
  let f = Array.of_list (String.split_on_char ' ' rest) in
  let ticks = float_of_string f.(11) +. float_of_string f.(12) in
  ticks /. 100.

(* ---------------- statistics ---------------- *)

let sorted_floats xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(** Nearest-rank percentile, [p] in 0..100. *)
let percentile a p =
  let n = Array.length a in
  if n = 0 then nan
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (float_of_int n *. p /. 100.)) - 1)))

let median xs = percentile (sorted_floats xs) 50.
let sum xs = List.fold_left ( +. ) 0. xs

(* ---------------- child processes ---------------- *)

(** Run [f] in a forked child and return its marshalled result, or
    [Error] when the child crashed, timed out or returned nothing.  The
    calling process must not have spawned domains yet. *)
let in_child ~timeout (f : unit -> 'a) : ('a, string) result =
  let rd, wr = Unix.pipe ~cloexec:true () in
  (* unflushed output would otherwise be written twice, once per process *)
  flush_all ();
  match Unix.fork () with
  | 0 ->
      Unix.close rd;
      let code =
        match f () with
        | v ->
            let oc = Unix.out_channel_of_descr wr in
            Marshal.to_channel oc v [];
            flush oc;
            0
        | exception e ->
            prerr_endline ("perfbench: child failed: " ^ Printexc.to_string e);
            3
      in
      Unix._exit code
  | pid ->
      Unix.close wr;
      let buf = Buffer.create 4096 in
      let chunk = Bytes.create 65536 in
      let deadline = now () +. timeout in
      let rec pump () =
        let left = deadline -. now () in
        if left <= 0. then false
        else
          match Unix.select [ rd ] [] [] left with
          | [], _, _ -> false
          | _ -> (
              match Unix.read rd chunk 0 (Bytes.length chunk) with
              | 0 -> true
              | n ->
                  Buffer.add_subbytes buf chunk 0 n;
                  pump ())
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> pump ()
      in
      let finished = pump () in
      Unix.close rd;
      if not finished then (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      let _, status = Unix.waitpid [] pid in
      if not finished then Error (Printf.sprintf "child timed out after %.0f s" timeout)
      else
        match status with
        | Unix.WEXITED 0 when Buffer.length buf > 0 ->
            Ok (Marshal.from_string (Buffer.contents buf) 0)
        | Unix.WEXITED n -> Error (Printf.sprintf "child exited with code %d" n)
        | Unix.WSIGNALED n | Unix.WSTOPPED n ->
            Error (Printf.sprintf "child killed by signal %d" n)

(** Point file descriptor 1 at [path] for the rest of this process, so
    that the figures' [print_string] output lands in the file. *)
let stdout_to path =
  flush stdout;
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  Unix.dup2 fd Unix.stdout;
  Unix.close fd

(** Bytes written to stdout so far (after {!stdout_to}). *)
let stdout_pos () =
  flush stdout;
  Unix.lseek Unix.stdout 0 Unix.SEEK_CUR

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let ratio a b = if b = 0. then 0. else a /. b
