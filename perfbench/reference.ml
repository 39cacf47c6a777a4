(* The recorded reference outputs.  The fig-3.6 section of the grid
   report must equal the repository's golden file; every other figure is
   checked against the MD5 digest recorded in perfbench/reference.txt,
   next to the counts each workload must repeat exactly. *)

type t = {
  golden : (string * string) list;  (** figure id -> exact bytes *)
  digests : (string, string) Hashtbl.t;  (** figure id -> hex MD5 *)
  counts : (string * string, int) Hashtbl.t;  (** (workload, key) -> value *)
}

let file = "perfbench/reference.txt"
let golden_files = [ ("fig-3.6", "test/golden/fig-3.6.txt") ]

let load () =
  let golden =
    List.map
      (fun (id, path) ->
        if not (Sys.file_exists path) then
          Util.die "%s is missing: run from the root of a checkout of the repository" path;
        (id, Util.read_file path))
      golden_files
  in
  let digests = Hashtbl.create 64 and counts = Hashtbl.create 16 in
  if not (Sys.file_exists file) then Util.die "%s is missing" file;
  List.iter
    (fun line ->
      match String.split_on_char ' ' (String.trim line) with
      | [ "digest"; id; md5 ] -> Hashtbl.replace digests id md5
      | [ "count"; workload; key; v ] -> Hashtbl.replace counts (workload, key) (int_of_string v)
      | [ "" ] -> ()
      | w :: _ when String.starts_with ~prefix:"#" w -> ()
      | _ -> Util.die "%s: bad line %S" file line)
    (String.split_on_char '\n' (Util.read_file file));
  { golden; digests; counts }

let figure_ok t id bytes =
  match List.assoc_opt id t.golden with
  | Some want -> String.equal want bytes
  | None -> (
      match Hashtbl.find_opt t.digests id with
      | Some md5 -> String.equal md5 (Digest.to_hex (Digest.string bytes))
      | None -> false)

let count t workload key = Hashtbl.find_opt t.counts (workload, key)
