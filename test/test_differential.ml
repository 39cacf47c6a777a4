(* Differential property testing: for randomly generated (error-free)
   programs, the SDS- and MDS-transformed builds must verify, run to
   completion, and produce byte-identical output to the golden build.
   This is the strongest automated statement of the §1.1 invariant that
   application and replica state do not diverge under error-free
   execution. *)

open Dpmr_ir
open Types
open Inst
module B = Builder
module Config = Dpmr_core.Config
module Dpmr = Dpmr_core.Dpmr
module Outcome = Dpmr_vm.Outcome

(* program shape: two 16-element i64 arrays, an accumulator, a linked
   cell, and a string buffer; ops are closed over valid indices *)
type op =
  | Store_arr of int * int * int  (* arr, idx, value *)
  | Copy_elt of int * int * int  (* src idx -> dst idx across arrays *)
  | Acc_load of int * int
  | Acc_arith of int
  | Box_round of int  (* heap round-trip through a helper call *)
  | Str_round of int  (* strcpy a word, accumulate strlen *)
  | Sort_prefix  (* qsort the first 8 elements of arr 0 *)

let op_gen =
  let open QCheck.Gen in
  frequency
    [
      (4, map3 (fun a i v -> Store_arr (a land 1, i land 15, v land 1023)) nat nat nat);
      (3, map3 (fun a i j -> Copy_elt (a land 1, i land 15, j land 15)) nat nat nat);
      (4, map2 (fun a i -> Acc_load (a land 1, i land 15)) nat nat);
      (3, map (fun v -> Acc_arith ((v land 255) + 1)) nat);
      (2, map (fun v -> Box_round (v land 511)) nat);
      (2, map (fun v -> Str_round (v land 3)) nat);
      (1, return Sort_prefix);
    ]

let words = [| "alpha"; "beta"; "gamma"; "delta" |]

let build_prog ops =
  let p = Prog.create () in
  Dpmr_vm.Extern.declare_signatures p;
  let str8 = Ptr (arr i8 0) in
  (* helper: box a value on the heap *)
  let b = B.create p ~name:"box" ~params:[ ("v", i64) ] ~ret:(Ptr i64) () in
  let cell = B.malloc b i64 in
  B.store b i64 (B.param b 0) cell;
  B.ret b (Some cell);
  (* i64 comparator for qsort *)
  let b = B.create p ~name:"cmp" ~params:[ ("a", str8); ("b", str8) ] ~ret:i32 () in
  let va = B.load b i64 (B.bitcast b (Ptr i64) (B.param b 0)) in
  let vb = B.load b i64 (B.bitcast b (Ptr i64) (B.param b 1)) in
  let lt = B.icmp b Islt W64 va vb and gt = B.icmp b Isgt W64 va vb in
  B.ret b (Some (B.int_cast b W32 (B.sub b W8 gt lt)));
  let b = B.create p ~name:"main" ~params:[] ~ret:i32 () in
  let arr0 = B.malloc b ~name:"arr0" ~count:(B.i64c 16) i64 in
  let arr1 = B.malloc b ~name:"arr1" ~count:(B.i64c 16) i64 in
  (* initialize: uninitialized reads are themselves detectable divergence *)
  B.for_ b ~from:(B.i64c 0) ~below:(B.i64c 16) (fun i ->
      B.store b i64 i (B.gep_index b arr0 i);
      B.store b i64 (B.mul b W64 i (B.i64c 2)) (B.gep_index b arr1 i));
  let arr_of = function 0 -> arr0 | _ -> arr1 in
  let acc = B.local b ~name:"acc" i64 (B.i64c 0) in
  let strbuf = B.bitcast b str8 (B.malloc b ~count:(B.i64c 16) i8) in
  let word_globals =
    Array.mapi
      (fun i w ->
        B.bitcast b str8
          (B.global b ~name:(Printf.sprintf "dw%d" i) (arr i8 8) (Prog.Gstring w)))
      words
  in
  List.iter
    (fun op ->
      match op with
      | Store_arr (a, i, v) ->
          B.store b i64 (B.i64c v) (B.gep_index b (arr_of a) (B.i64c i))
      | Copy_elt (a, i, j) ->
          let v = B.load b i64 (B.gep_index b (arr_of a) (B.i64c i)) in
          B.store b i64 v (B.gep_index b (arr_of (1 - a)) (B.i64c j))
      | Acc_load (a, i) ->
          let v = B.load b i64 (B.gep_index b (arr_of a) (B.i64c i)) in
          B.set b i64 acc (B.add b W64 (B.get b i64 acc) v)
      | Acc_arith v ->
          let x = B.get b i64 acc in
          let y = B.mul b W64 x (B.i64c 3) in
          B.set b i64 acc (B.add b W64 y (B.i64c v))
      | Box_round v ->
          let cell = B.call1 b (Direct "box") [ B.i64c v ] in
          let got = B.load b i64 cell in
          B.set b i64 acc (B.add b W64 (B.get b i64 acc) got);
          B.free b cell
      | Str_round i ->
          ignore (B.call b (Direct "strcpy") [ strbuf; word_globals.(i) ]);
          let l = B.call1 b (Direct "strlen") [ strbuf ] in
          B.set b i64 acc (B.add b W64 (B.get b i64 acc) l)
      | Sort_prefix ->
          B.call0 b (Direct "qsort")
            [ B.bitcast b str8 arr0; B.i64c 8; B.i64c 8; Fun_addr "cmp" ])
    ops;
  (* output: accumulator + both array checksums *)
  B.call0 b (Direct "print_int") [ B.get b i64 acc ];
  B.call0 b (Direct "putchar") [ B.i32c 32 ];
  let ck arrv =
    let s = B.local b i64 (B.i64c 0) in
    B.for_ b ~from:(B.i64c 0) ~below:(B.i64c 16) (fun i ->
        let v = B.load b i64 (B.gep_index b arrv i) in
        let m = B.mul b W64 (B.get b i64 s) (B.i64c 31) in
        B.set b i64 s (B.add b W64 m v));
    B.get b i64 s
  in
  B.call0 b (Direct "print_int") [ ck arr0 ];
  B.call0 b (Direct "putchar") [ B.i32c 32 ];
  B.call0 b (Direct "print_int") [ ck arr1 ];
  B.ret b (Some (B.i32c 0));
  p

let print_ops ops =
  String.concat ";"
    (List.map
       (function
         | Store_arr (a, i, v) -> Printf.sprintf "st(%d,%d,%d)" a i v
         | Copy_elt (a, i, j) -> Printf.sprintf "cp(%d,%d,%d)" a i j
         | Acc_load (a, i) -> Printf.sprintf "ld(%d,%d)" a i
         | Acc_arith v -> Printf.sprintf "ar(%d)" v
         | Box_round v -> Printf.sprintf "box(%d)" v
         | Str_round i -> Printf.sprintf "str(%d)" i
         | Sort_prefix -> "sort")
       ops)

let arb_ops =
  QCheck.make ~print:print_ops QCheck.Gen.(list_size (int_range 1 40) op_gen)

let run_all_modes ops =
  let p = build_prog ops in
  Verifier.check_prog p;
  let golden = Dpmr.run_plain p in
  let check cfg =
    let tp = Dpmr.transform cfg p in
    Verifier.check_prog tp;
    let r = Dpmr.run_dpmr cfg p in
    r.Outcome.outcome = Outcome.Normal && r.Outcome.output = golden.Outcome.output
  in
  golden.Outcome.outcome = Outcome.Normal
  && check Config.default
  && check { Config.default with Config.mode = Config.Mds }
  && check { Config.default with Config.diversity = Config.Rearrange_heap }
  && check
       {
         Config.default with
         Config.mode = Config.Mds;
         diversity = Config.Zero_before_free;
       }

let prop_differential =
  QCheck.Test.make ~name:"random programs: golden = SDS = MDS output" ~count:60
    arb_ops run_all_modes

let prop_temporal_policy =
  QCheck.Test.make ~name:"random programs: temporal policy preserves output" ~count:25
    arb_ops
    (fun ops ->
      let p = build_prog ops in
      let golden = Dpmr.run_plain p in
      let cfg =
        { Config.default with Config.policy = Config.Temporal Config.temporal_mask_1_2 }
      in
      let r = Dpmr.run_dpmr cfg p in
      r.Outcome.output = golden.Outcome.output)

let prop_dsa_scope =
  QCheck.Test.make ~name:"random programs: DSA+MDS preserves output" ~count:25 arb_ops
    (fun ops ->
      let p = build_prog ops in
      let golden = Dpmr.run_plain p in
      let cfg = { Config.default with Config.mode = Config.Mds } in
      let tp = Dpmr_dsa.Dsa_dpmr.transform cfg p in
      Verifier.check_prog tp;
      let vm = Dpmr.vm_dpmr ~mode:Config.Mds tp in
      let r = Dpmr_vm.Vm.run vm in
      r.Outcome.output = golden.Outcome.output)

let suites =
  [
    ( "differential",
      List.map QCheck_alcotest.to_alcotest
        [ prop_differential; prop_temporal_policy; prop_dsa_scope ] );
  ]
