(* Textual IR round-trip tests: parse (emit p) behaves exactly like p for
   every workload, micro workload and random program — outputs, exit
   classification and cost all equal. *)

open Dpmr_ir
module Dpmr = Dpmr_core.Dpmr
module Outcome = Dpmr_vm.Outcome

let behaviour p =
  let r = Dpmr.run_plain p in
  (Outcome.to_string r.Outcome.outcome, r.Outcome.output, r.Outcome.cost)

let check_roundtrip name p =
  let text = Text.emit p in
  let p2 =
    try Text.parse text
    with Text.Parse_error (line, msg) ->
      Alcotest.failf "%s: parse error line %d: %s" name line msg
  in
  Verifier.check_prog p2;
  let o1, out1, c1 = behaviour p and o2, out2, c2 = behaviour p2 in
  Alcotest.(check string) (name ^ " outcome") o1 o2;
  Alcotest.(check string) (name ^ " output") out1 out2;
  Alcotest.(check int64) (name ^ " cost") c1 c2

let test_workloads_roundtrip () =
  List.iter
    (fun (e : Dpmr_workloads.Workloads.entry) ->
      check_roundtrip e.Dpmr_workloads.Workloads.name
        (e.Dpmr_workloads.Workloads.build ()))
    Dpmr_workloads.Workloads.all

let test_micro_roundtrip () =
  List.iter (fun (name, build) -> check_roundtrip name (build ()))
    Dpmr_workloads.Micro.all

let test_transformed_roundtrip () =
  (* even DPMR-instrumented programs (with generated shadow structs)
     survive serialization *)
  let p = Dpmr_testprogs.Progs.linked_list () in
  let tp = Dpmr.transform Dpmr_core.Config.default p in
  let text = Text.emit tp in
  let tp2 = Text.parse text in
  Verifier.check_prog tp2;
  let run q =
    let vm = Dpmr.vm_dpmr ~mode:Dpmr_core.Config.Sds q in
    Dpmr_vm.Vm.run vm
  in
  let r1 = run tp and r2 = run tp2 in
  Alcotest.(check string) "output" r1.Outcome.output r2.Outcome.output;
  Alcotest.(check int64) "cost" r1.Outcome.cost r2.Outcome.cost

let test_double_roundtrip_stable () =
  let p = Dpmr_testprogs.Progs.qsort_prog () in
  let t1 = Text.emit p in
  let t2 = Text.emit (Text.parse t1) in
  Alcotest.(check string) "emit is a fixpoint after one round" t1 t2

let duplicate_label = "func @main() : i32 {\nbase:\n  ret 0:i32\nbase:\n  ret 1:i32\n}\n"

let test_parse_errors () =
  let bad =
    [
      ("global g :", "truncated global");
      ("func @f( : i32 {", "bad param");
      ("struct S { badtype }", "unknown type");
      ("wibble", "unknown top-level");
      (duplicate_label, "duplicate label");
    ]
  in
  List.iter
    (fun (src, what) ->
      Alcotest.(check bool) what true
        (try
           ignore (Text.parse src);
           false
         with Text.Parse_error _ -> true))
    bad

(* Programs that parse but are ill-formed: the verifier must reject them
   with [Ill_formed] rather than let a lookup raise [Invalid_argument]. *)
let ill_formed =
  [
    ( "branch to a missing label",
      "func @main() : i32 {\nentry:\n  br nowhere\n}\n" );
    ( "malloc of an undefined type",
      "func @main() : i32 {\nentry:\n  %q : %nosuch* = malloc %nosuch, 1:i64\n  ret 0:i32\n}\n" );
    ( "struct holding an undefined type",
      "struct S { %T }\nfunc @main() : i32 {\nentry:\n  %p : %S* = malloc %S, 1:i64\n  \
       ret 0:i32\n}\n" );
    ( "global of an undefined type",
      "global g : %T\nfunc @main() : i32 {\nentry:\n  ret 0:i32\n}\n" );
    ( "load of an undefined global",
      "func @main() : i32 {\nentry:\n  %v : i64 = load i64, @nog\n  ret 0:i32\n}\n" );
  ]

let test_verifier_ill_formed () =
  List.iter
    (fun (what, src) ->
      let p = Text.parse src in
      Dpmr_vm.Extern.declare_signatures p;
      match Verifier.check_prog p with
      | () -> Alcotest.failf "%s: verifier accepted the program" what
      | exception Verifier.Ill_formed _ -> ())
    ill_formed

(* [dpmr runfile] turns a parse error or an ill-formed program into one
   [file: message] line and exit 1, never an uncaught exception *)
let test_runfile_diagnostics () =
  List.iter
    (fun (what, src) ->
      let file = Filename.temp_file "dpmr_bad" ".ir" in
      Fun.protect ~finally:(fun () -> Sys.remove file) @@ fun () ->
      Out_channel.with_open_bin file (fun oc -> output_string oc src);
      let rc, _, err = Test_codec.run_cli [ "runfile"; file; "--plain" ] in
      Alcotest.(check int) (what ^ ": exit status") 1 rc;
      Alcotest.(check bool) (what ^ ": one line naming the file") true
        (String.starts_with ~prefix:(file ^ ":") err
        && String.index_opt err '\n' = Some (String.length err - 1)))
    (("duplicate label", duplicate_label) :: ill_formed)

let test_comments_and_blank_lines () =
  let src =
    "# a comment\n\nglobal g : i64 = 7\n\nfunc @main() : i32 {\nentry:\n  \
     %v : i64 = load i64, @g  # trailing comment\n  call print_int(%v)\n  ret 0:i32\n}\n"
  in
  let p = Text.parse src in
  (* declare the externs the snippet relies on before verifying *)
  Dpmr_vm.Extern.declare_signatures p;
  Verifier.check_prog p;
  let r = Dpmr.run_plain p in
  Alcotest.(check string) "runs" "7" r.Outcome.output

let test_handwritten_program () =
  let src =
    {|# hand-written textual IR
struct Node { i64, %Node* }
extern print_int : void (i64)
global seed : i64 = 3

func @sum(%n : %Node*) : i64 {
entry:
  %acc : i64* = alloca i64, 1:i64
  store i64 0:i64, %acc
  %cur : %Node** = alloca %Node*, 1:i64
  store %Node* %n, %cur
  br head
head:
  %c : %Node* = load %Node*, %cur
  %ci : i64 = ptrtoint %c
  %nz : i8 = icmp ne i64 %ci, 0:i64
  cbr %nz, body, done
body:
  %vp : i64* = gepf %Node, %c, 0
  %v : i64 = load i64, %vp
  %a : i64 = load i64, %acc
  %a2 : i64 = add i64 %a, %v
  store i64 %a2, %acc
  %np : %Node** = gepf %Node, %c, 1
  %nx : %Node* = load %Node*, %np
  store %Node* %nx, %cur
  br head
done:
  %r : i64 = load i64, %acc
  ret %r
}

func @main() : i32 {
entry:
  %a : %Node* = malloc %Node, 1:i64
  %b : %Node* = malloc %Node, 1:i64
  %ap : i64* = gepf %Node, %a, 0
  store i64 40:i64, %ap
  %anp : %Node** = gepf %Node, %a, 1
  store %Node* %b, %anp
  %bp : i64* = gepf %Node, %b, 0
  store i64 2:i64, %bp
  %bnp : %Node** = gepf %Node, %b, 1
  store %Node* null %Node, %bnp
  %s : i64 = call sum(%a)
  call print_int(%s)
  ret 0:i32
}
|}
  in
  let p = Text.parse src in
  Verifier.check_prog p;
  let r = Dpmr.run_plain p in
  Alcotest.(check string) "hand-written program runs" "42" r.Outcome.output;
  (* and it transforms *)
  let r2 = Dpmr.run_dpmr Dpmr_core.Config.default p in
  Alcotest.(check string) "under DPMR too" "42" r2.Outcome.output

(* qcheck: random programs round-trip *)
let prop_random_roundtrip =
  QCheck.Test.make ~name:"random programs round-trip through text" ~count:40
    Test_differential.arb_ops
    (fun ops ->
      let p = Test_differential.build_prog ops in
      let p2 = Text.parse (Text.emit p) in
      behaviour p = behaviour p2)

(* qcheck: the parsed program verifies and re-emits to the identical
   text — parse . emit is a verifier-preserving fixpoint, so golden
   files and cache keys derived from emitted text are stable. *)
let prop_random_emit_fixpoint =
  QCheck.Test.make ~name:"random programs: emit . parse . emit is a fixpoint"
    ~count:40 Test_differential.arb_ops
    (fun ops ->
      let p = Test_differential.build_prog ops in
      let text = Text.emit p in
      let p2 = Text.parse text in
      Verifier.check_prog p2;
      String.equal text (Text.emit p2))

let suites =
  [
    ( "text",
      [
        Alcotest.test_case "workloads round-trip" `Quick test_workloads_roundtrip;
        Alcotest.test_case "micro workloads round-trip" `Quick test_micro_roundtrip;
        Alcotest.test_case "transformed programs round-trip" `Quick
          test_transformed_roundtrip;
        Alcotest.test_case "emit is stable" `Quick test_double_roundtrip_stable;
        Alcotest.test_case "parse errors reported" `Quick test_parse_errors;
        Alcotest.test_case "verifier: ill-formed programs" `Quick test_verifier_ill_formed;
        Alcotest.test_case "runfile diagnostics" `Quick test_runfile_diagnostics;
        Alcotest.test_case "comments and blanks" `Quick test_comments_and_blank_lines;
        Alcotest.test_case "hand-written program" `Quick test_handwritten_program;
      ]
      @ List.map QCheck_alcotest.to_alcotest
          [ prop_random_roundtrip; prop_random_emit_fixpoint ] );
  ]
