(* Per-instruction-class allocation probe: tight IR loops of one
   instruction class, run through the production engine and the
   reference tree-walker, bytes allocated per loop iteration printed for
   each.

   The compiled column is asserted ~0: once a function's closures are
   built (cached on the shared lowered program), the steady-state loop
   must be allocation-free — operand shapes are pre-bound, block and
   terminator closures return immediate ints, and the frame is an
   unboxed byte register file.  The simulated cost must also agree with
   the reference engine exactly.

   Run with: dune exec bench/alloc_probe.exe *)
open Dpmr_ir
open Types
open Inst
module B = Builder
module Vm = Dpmr_vm.Vm
module Dpmr = Dpmr_core.Dpmr

let n = 1_000_000

let mk_prog fill =
  let p = Prog.create () in
  let b = B.create p ~name:"main" ~params:[] ~ret:(Int W32) () in
  fill b;
  B.ret b (Some (B.i32c 0));
  p

let with_tier mode f =
  let old = Vm.tier_mode () in
  Vm.set_tier_mode mode;
  Fun.protect ~finally:(fun () -> Vm.set_tier_mode old) f

(* steady-state bytes/iteration: one warmup run (which also compiles —
   the closures cache on [lowered]), then one measured run *)
let steady_state lowered p =
  let r0 = Dpmr.run_plain ~lowered p in
  assert (r0.Dpmr_vm.Outcome.outcome = Dpmr_vm.Outcome.Normal);
  let a0 = Gc.allocated_bytes () in
  let _ = Dpmr.run_plain ~lowered p in
  let a1 = Gc.allocated_bytes () in
  ((a1 -. a0) /. float_of_int n, r0.Dpmr_vm.Outcome.cost)

let probe label fill =
  let p = mk_prog fill in
  let lowered = Dpmr_vm.Lower.lower_prog p in
  let comp, cost = steady_state lowered p in
  let refr, cost' = with_tier Vm.Tier_ref (fun () -> steady_state lowered p) in
  Printf.printf
    "%-20s compiled %8.1f B/loop-iter   reference %8.1f B/loop-iter  (cost %Ld)\n%!"
    label comp refr cost;
  assert (Int64.equal cost cost');
  (* allocation-free modulo per-run VM setup amortized over [n] iters *)
  assert (comp < 0.5)

let () =
  probe "alu add" (fun b ->
      B.for_ b ~from:(B.i64c 0) ~below:(B.i64c n) (fun i ->
          ignore (B.binop b Add W64 i (B.i64c 7))));
  probe "icmp" (fun b ->
      B.for_ b ~from:(B.i64c 0) ~below:(B.i64c n) (fun i ->
          ignore (B.icmp b Islt W64 i (B.i64c 5))));
  probe "load+store" (fun b ->
      let buf = B.malloc b ~name:"buf" ~count:(B.i64c 8) (Int W64) in
      B.for_ b ~from:(B.i64c 0) ~below:(B.i64c n) (fun i ->
          let v = B.load b (Int W64) buf in
          B.store b (Int W64) (B.binop b Add W64 v i) buf));
  probe "gep+mov" (fun b ->
      let buf = B.malloc b ~name:"buf" ~count:(B.i64c 8) (Int W64) in
      B.for_ b ~from:(B.i64c 0) ~below:(B.i64c n) (fun i ->
          ignore (B.gep_index b buf i)));
  probe "fbinop" (fun b ->
      B.for_ b ~from:(B.i64c 0) ~below:(B.i64c n) (fun i ->
          let f = B.i_to_f b W64 i in
          ignore (B.fbinop b Fmul f (B.fc 1.5))));
  probe "empty loop" (fun b ->
      B.for_ b ~from:(B.i64c 0) ~below:(B.i64c n) (fun _ -> ()))
