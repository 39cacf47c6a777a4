(* Seeded mutation fuzzing of textual IR.  The corpus is every
   workload's [Text.emit] output plus the hand-written
   examples/fibonacci.ir; each seed text yields a fixed set of byte- and
   line-level mutants.  Three properties:

   1. [Text.parse] then [Verifier.check_prog] fails only with their
      typed errors ([Parse_error]/[Ill_formed]), never a host exception;

   2. every mutant that verifies runs to a classified outcome under a
      small budget on both engines, and the production engine agrees
      with the reference spec on classification, cost and output — the
      direct check that the one production engine matches the spec on
      odd IR;

   3. the runs stay small: the budget bounds them, and the largest
      simulated footprint is asserted.

   Crashes found by the fuzzer become regression tests below. *)

open Dpmr_ir
module Dpmr = Dpmr_core.Dpmr
module Vm = Dpmr_vm.Vm
module Outcome = Dpmr_vm.Outcome
module Workloads = Dpmr_workloads.Workloads

let mutants_per_seed = 500
let budget = 50_000L

(* bytes a mutation writes: digits move constants and counts, the rest
   hit the syntax *)
let alphabet = "0123456789%:,=@{}()*-. \nabcxyzi"

let mutate rng text =
  let n = String.length text in
  let pick () = alphabet.[Random.State.int rng (String.length alphabet)] in
  match Random.State.int rng 6 with
  | 0 ->
      let b = Bytes.of_string text in
      Bytes.set b (Random.State.int rng n) (pick ());
      Bytes.to_string b
  | 1 ->
      let i = Random.State.int rng n in
      String.sub text 0 i ^ String.sub text (i + 1) (n - i - 1)
  | 2 ->
      let i = Random.State.int rng n in
      String.sub text 0 i ^ String.make 1 (pick ()) ^ String.sub text i (n - i)
  | _ -> (
      let lines = Array.of_list (String.split_on_char '\n' text) in
      let m = Array.length lines in
      let i = Random.State.int rng m and j = Random.State.int rng m in
      let l = Array.to_list lines in
      String.concat "\n"
        (match Random.State.int rng 3 with
        | 0 -> List.filteri (fun k _ -> k <> i) l
        | 1 -> List.concat (List.mapi (fun k x -> if k = i then [ x; x ] else [ x ]) l)
        | _ ->
            List.mapi
              (fun k x -> if k = i then lines.(j) else if k = j then lines.(i) else x)
              l))

let seeds () =
  List.map
    (fun (e : Workloads.entry) ->
      (e.Workloads.name, Text.emit (e.Workloads.build ~scale:1 ())))
    Workloads.all
  @ [ ("fibonacci.ir", In_channel.with_open_bin "../examples/fibonacci.ir" In_channel.input_all) ]

type mutant = {
  origin : string;  (** seed name and mutant index, for failure messages *)
  front_end : (Prog.t option, string) result;
      (** [Ok (Some p)] verified, [Ok None] rejected with a typed error,
          [Error e] a host exception *)
}

let corpus =
  lazy
    (let rng = Random.State.make [| 17 |] in
     List.concat_map
       (fun (name, text) ->
         List.init mutants_per_seed (fun k ->
             let origin = Printf.sprintf "%s mutant %d" name k in
             let front_end =
               match Text.parse (mutate rng text) with
               | exception Text.Parse_error _ -> Ok None
               | exception e -> Error (Printexc.to_string e)
               | p -> (
                   match Verifier.check_prog p with
                   | () -> Ok (Some p)
                   | exception Verifier.Ill_formed _ -> Ok None
                   | exception e -> Error (Printexc.to_string e))
             in
             { origin; front_end }))
       (seeds ()))

let test_front_end_typed () =
  let verified =
    List.fold_left
      (fun n m ->
        match m.front_end with
        | Ok (Some _) -> n + 1
        | Ok None -> n
        | Error e -> Alcotest.failf "%s: front end raised %s" m.origin e)
      0 (Lazy.force corpus)
  in
  (* the mutants must reach the engines, not only the parser *)
  Alcotest.(check bool)
    (Printf.sprintf "%d mutants verify" verified)
    true (verified >= 500)

let kind = function
  | Outcome.Normal -> "normal"
  | Outcome.App_exit _ -> "app-exit"
  | Outcome.Crash _ -> "crash"
  | Outcome.Dpmr_detect _ -> "detect"
  | Outcome.Timeout -> "timeout"

let fingerprint (r : Outcome.run) =
  Printf.sprintf "%s cost=%Ld out=%S" (Outcome.to_string r.Outcome.outcome)
    r.Outcome.cost r.Outcome.output

let test_engines_agree () =
  let outcomes = Hashtbl.create 8 and max_pages = ref 0 in
  List.iter
    (fun m ->
      match m.front_end with
      | Ok None | Error _ -> ()
      | Ok (Some p) ->
          let run engine =
            match engine (Dpmr.vm_plain ~budget p) with
            | r -> r
            | exception e ->
                Alcotest.failf "%s: run raised %s" m.origin (Printexc.to_string e)
          in
          let c = run (fun vm -> Vm.run vm) and r = run (fun vm -> Vm.run_reference vm) in
          Alcotest.(check string)
            (m.origin ^ ": compiled = reference")
            (fingerprint r) (fingerprint c);
          Hashtbl.replace outcomes (kind c.Outcome.outcome) ();
          max_pages := max !max_pages c.Outcome.mapped_pages)
    (Lazy.force corpus);
  (* odd IR ends every way a run can end, not only in the budget *)
  List.iter
    (fun o ->
      Alcotest.(check bool) ("some mutant ends in " ^ o) true (Hashtbl.mem outcomes o))
    [ "timeout"; "crash"; "normal" ];
  Alcotest.(check bool)
    (Printf.sprintf "largest footprint %d pages" !max_pages)
    true (!max_pages <= 1024)

(* --- regressions found by the fuzzer --- *)

(* a mutant that renamed [main]: both engines raised [Invalid_argument]
   out of [run] instead of classifying the run *)
let test_missing_entry () =
  let p = Text.parse "func @start() : i32 {\nentry:\n  ret 0:i32\n}\n" in
  Verifier.check_prog p;
  List.iter
    (fun (name, engine) ->
      let r = engine (Dpmr.vm_plain p) in
      Alcotest.(check string)
        (name ^ ": a crash of the run")
        "crash(undefined entry point \"main\")"
        (Outcome.to_string r.Outcome.outcome))
    [ ("compiled", fun vm -> Vm.run vm); ("reference", fun vm -> Vm.run_reference vm) ]

let suites =
  [
    ( "text-fuzz",
      [
        Alcotest.test_case "front end raises only typed errors" `Quick
          test_front_end_typed;
        Alcotest.test_case "verified mutants: compiled = reference" `Quick
          test_engines_agree;
        Alcotest.test_case "missing entry point is a crash" `Quick test_missing_entry;
      ] );
  ]
