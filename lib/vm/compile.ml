(** Closure-compiled top tier for hot lowered functions.

    The lowered engine ({!Vm}) already executes pre-resolved arrays, but
    every instruction still pays a dispatch: fetch, a 20-way match, and
    re-interpretation of operand shapes that were fixed at lowering time.
    This module removes that residue by compiling each {!Lower.lfunc}
    once — when its telemetry says it is hot — into a tree of pre-bound
    OCaml closures: one closure per basic block, with straight-line runs
    of instructions fused into superinstruction chains and the operand
    shapes ([Lreg]/[Lconst]) burned into each closure's body.

    Fidelity contract: the compiled tier charges the {!Cost} model at the
    same program points, evaluates operands in the same order, raises the
    same exceptions from the same states and writes the same register
    bits as the lowered engine — byte-identical outcomes, enforced by the
    three-tier differential suite.  Two deliberate structural deviations,
    both invisible to behaviour:

    - trace emission is absent: {!Vm} only promotes when no sink is
      installed (and a sink cannot appear mid-run — it is captured at
      [Vm.create]), so the omitted events could never have fired;
    - the step-poll hook is captured once per tier entry instead of read
      per block — the hook is installed by a supervisor before the run
      and cannot change underneath a running domain.

    Nothing else pins a function to the lowered engine: fault-injection
    marks are extern calls that read the same cost counter, which this
    tier charges at the same points, so compiled code runs straight
    through an activated fault.  Entry shares the lowered tier's
    {!Machine.lframe} (promotion mid-run is on-stack replacement with no
    state copy), and there is no way back: a compiled entry runs until
    the function returns or raises.

    Boxing discipline (the whole point of the exercise): a closure that
    {e returns} an [int64] or [float], or passes one to another closure,
    boxes it — so every hot instruction is compiled to a {e single}
    closure whose body reads operands inline through {!Machine}'s
    [\[@inline\]] register primitives and feeds them straight into the
    consuming primitive.  Generic [cstate -> int64] evaluator closures
    exist only as the fallback for cold operand shapes
    ([Lglobal]/[Lfun_name], whose per-VM address lookup allocates
    anyway). *)

open Dpmr_ir
open Dpmr_memsim
module L = Lower

(* Process-wide tier telemetry.  An atomic, not a per-VM field:
   promotion mutates shared [lfunc] state under the lowering table's
   publication discipline, and report jobs run one VM per domain — a
   global counter is race-free to read and keeps [cstate] free of
   accounting. *)
let promotions = Atomic.make 0
let n_promotions () = Atomic.get promotions

(** Everything the compiled code needs from the VM.  A functor parameter
    rather than a direct [Vm] dependency because [Vm] sits {e above}
    this module: it instantiates {!Make} after its recursive execution
    knot and ties the result into [Vm.tier_enter]. *)
module type RUNTIME = sig
  type t

  val cost : t -> int ref
  val budget : t -> int
  val mem : t -> Mem.t
  val alloc : t -> Allocator.t
  val sp : t -> int64
  val set_sp : t -> int64 -> unit
  val global_address : t -> string -> int64
  val fun_address : t -> string -> int64

  val call_lfun : t -> L.lfunc -> L.value array -> L.value option
  (** call a lowered function (the callee runs on whatever tier its own
      telemetry selects) *)

  val call_extern_slot : t -> int -> string -> L.value array -> L.value option
  (** direct extern call through the per-VM slot cache, with the lowered
      engine's resolution order (slot, extern table, unknown) *)

  val indirect_name : t -> int64 -> string
  (** reverse function-address lookup; faults on unmapped addresses
      {e before} argument evaluation, like the lowered engine *)

  val call_named : t -> string -> L.value array -> L.value option
  (** indirect-call completion: defined function, extern, or unknown *)
end

module Make (R : RUNTIME) = struct
  (* Per-entry execution state: one record allocated per tier entry,
     threading everything hot through a single immediate argument.
     [mem]/[alloc]/[budget] are stable for the duration of a run, so
     they are hoisted out of the VM record once here. *)
  type cstate = {
    rt : R.t;
    cost : int ref;  (* the VM's own counter, captured once *)
    budget : int;
    poll : (unit -> unit) option;
    mem : Mem.t;
    alloc : Allocator.t;
    fr : Machine.lframe;
    mutable cret : L.value option;  (* return value, set by [Lret] steps *)
  }

  type step = cstate -> unit

  (* ---- generic operand evaluators (cold-shape fallback) ------------ *)

  (* Same semantics as [Vm.leval_int]/[leval_float]/[leval], including
     the error texts and the [Lfun_name] address-assignment side effect
     preceding a type mismatch. *)

  let op_int (o : L.lop) : cstate -> int64 =
    match o with
    | L.Lreg r -> fun st -> Machine.reg_int st.fr r
    | L.Lconst (L.I x) -> fun _ -> x
    | L.Lconst (L.F _) ->
        fun _ -> raise (Machine.Vm_error "expected int/pointer value")
    | L.Lglobal g -> fun st -> R.global_address st.rt g
    | L.Lfun_name f -> fun st -> R.fun_address st.rt f

  let op_float (o : L.lop) : cstate -> float =
    match o with
    | L.Lreg r -> fun st -> Machine.reg_float st.fr r
    | L.Lconst (L.F x) -> fun _ -> x
    | L.Lconst (L.I _) -> fun _ -> raise (Machine.Vm_error "expected float value")
    | L.Lglobal g ->
        fun st ->
          ignore (R.global_address st.rt g);
          raise (Machine.Vm_error "expected float value")
    | L.Lfun_name f ->
        fun st ->
          ignore (R.fun_address st.rt f);
          raise (Machine.Vm_error "expected float value")

  let op_val (o : L.lop) : cstate -> L.value =
    match o with
    | L.Lreg r ->
        fun st ->
          let fr = st.fr in
          if Bytes.unsafe_get fr.Machine.tags r = '\000' then
            L.I (Machine.reg_get fr.Machine.bits (r lsl 3))
          else L.F (Int64.float_of_bits (Machine.reg_get fr.Machine.bits (r lsl 3)))
    | L.Lconst v -> fun _ -> v
    | L.Lglobal g -> fun st -> L.I (R.global_address st.rt g)
    | L.Lfun_name f -> fun st -> L.I (R.fun_address st.rt f)

  (* [Vm.copy_op]: register sources move bits+tag; everything else goes
     through boxed evaluation. *)
  let cop_copy (r : int) (o : L.lop) : step =
    match o with
    | L.Lreg s ->
        fun st ->
          let fr = st.fr in
          Bytes.unsafe_set fr.Machine.tags r (Bytes.unsafe_get fr.Machine.tags s);
          Machine.reg_set fr.Machine.bits (r lsl 3)
            (Machine.reg_get fr.Machine.bits (s lsl 3))
    | L.Lconst v -> fun st -> Machine.set_value st.fr r v
    | L.Lglobal g -> fun st -> Machine.set_int st.fr r (R.global_address st.rt g)
    | L.Lfun_name f -> fun st -> Machine.set_int st.fr r (R.fun_address st.rt f)

  (* The write half of a store whose address is already known — the
     cold-shape fallback shared by [Lstore]/[Lstore_idx]/[Lstore_fld].
     Hot shapes are specialized in [cinst] to keep the address unboxed. *)
  let gwrite k (v : L.lop) : cstate -> int64 -> unit =
    match k with
    | L.Kint n -> (
        match v with
        | L.Lreg s ->
            fun st addr ->
              let fr = st.fr in
              if Bytes.unsafe_get fr.Machine.tags s <> '\000' then
                raise (Machine.Vm_error "store: float value into int slot");
              Mem.write_int st.mem addr n
                (Machine.reg_get fr.Machine.bits (s lsl 3))
        | L.Lconst (L.I y) -> fun st addr -> Mem.write_int st.mem addr n y
        | L.Lconst (L.F _) ->
            fun _ _ ->
              raise (Machine.Vm_error "store: float value into int slot")
        | L.Lglobal g ->
            fun st addr -> Mem.write_int st.mem addr n (R.global_address st.rt g)
        | L.Lfun_name f ->
            fun st addr -> Mem.write_int st.mem addr n (R.fun_address st.rt f))
    | L.Kfloat ->
        (* a float slot takes any value's bits verbatim, as in
           [Vm.exec_store_at] *)
        let bits : cstate -> int64 =
          match v with
          | L.Lreg s -> fun st -> Machine.reg_get st.fr.Machine.bits (s lsl 3)
          | L.Lconst (L.I y) -> fun _ -> y
          | L.Lconst (L.F x) ->
              let b = Int64.bits_of_float x in
              fun _ -> b
          | L.Lglobal g -> fun st -> R.global_address st.rt g
          | L.Lfun_name f -> fun st -> R.fun_address st.rt f
        in
        fun st addr -> Mem.write_int st.mem addr 8 (bits st)
    | L.Kbad ->
        let ev = op_val v in
        fun st _ ->
          ignore (ev st);
          raise (Machine.Vm_error "store of non-scalar")

  let finish st r name (res : L.value option) =
    match (r, res) with
    | Some r, Some v -> Machine.set_value st.fr r v
    | Some _, None ->
        raise
          (Machine.Vm_error
             (Printf.sprintf "%s returned void, result expected" name))
    | None, _ -> ()

  (* ---- per-instruction compilation --------------------------------- *)

  (* Each arm mirrors the corresponding [Vm.exec_linst] arm: same charge
     points, same right-to-left operand order for binary ops, same
     base-then-index order for fused accesses.  The first arms of each
     group are the hot operand shapes, compiled to a single closure with
     all reads inline; the last is the generic cold fallback. *)
  let cinst (inst : L.linst) : step =
    match inst with
    | L.Lmalloc (r, esz, n) ->
        let en = op_int n in
        fun st ->
          let count = Int64.to_int (en st) in
          if count < 0 then raise (Machine.Vm_error "malloc: negative count");
          let bytes = count * esz in
          st.cost := !(st.cost) + Cost.malloc_cost bytes;
          Machine.set_int st.fr r (Allocator.malloc st.alloc bytes)
    | L.Lalloca (r, esz, algn, n) ->
        let en = op_int n in
        fun st ->
          let count = Int64.to_int (en st) in
          let bytes = max 1 (count * esz) in
          st.cost := !(st.cost) + Cost.alloca_cost bytes;
          let addr =
            Int64.of_int (Layout.round_up (Int64.to_int (R.sp st.rt)) algn)
          in
          Mem.map_range st.mem addr bytes Mem.Fill_garbage;
          R.set_sp st.rt (Int64.add addr (Int64.of_int bytes));
          Machine.set_int st.fr r addr
    | L.Lfree p ->
        let ep = op_int p in
        fun st ->
          st.cost := !(st.cost) + Cost.free_cost;
          let addr = ep st in
          if not (Int64.equal addr 0L) then Allocator.free st.alloc addr
    (* loads *)
    | L.Lload (r, L.Kint n, L.Lreg p) ->
        fun st ->
          st.cost :=
            !(st.cost) + Cost.load
            + Cost.heap_pressure (Allocator.live_bytes st.alloc);
          let fr = st.fr in
          Machine.set_int fr r (Mem.read_int st.mem (Machine.reg_int fr p) n)
    | L.Lload (r, L.Kfloat, L.Lreg p) ->
        fun st ->
          st.cost :=
            !(st.cost) + Cost.load
            + Cost.heap_pressure (Allocator.live_bytes st.alloc);
          let fr = st.fr in
          let addr = Machine.reg_int fr p in
          Bytes.unsafe_set fr.Machine.tags r '\001';
          Machine.reg_set fr.Machine.bits (r lsl 3) (Mem.read_int st.mem addr 8)
    | L.Lload (r, k, p) -> (
        let ep = op_int p in
        match k with
        | L.Kint n ->
            fun st ->
              st.cost :=
                !(st.cost) + Cost.load
                + Cost.heap_pressure (Allocator.live_bytes st.alloc);
              Machine.set_int st.fr r (Mem.read_int st.mem (ep st) n)
        | L.Kfloat ->
            fun st ->
              st.cost :=
                !(st.cost) + Cost.load
                + Cost.heap_pressure (Allocator.live_bytes st.alloc);
              let addr = ep st in
              let fr = st.fr in
              Bytes.unsafe_set fr.Machine.tags r '\001';
              Machine.reg_set fr.Machine.bits (r lsl 3)
                (Mem.read_int st.mem addr 8)
        | L.Kbad ->
            fun st ->
              st.cost :=
                !(st.cost) + Cost.load
                + Cost.heap_pressure (Allocator.live_bytes st.alloc);
              ignore (ep st);
              raise (Machine.Vm_error "load of non-scalar"))
    (* stores *)
    | L.Lstore (L.Kint n, L.Lreg s, L.Lreg p) ->
        fun st ->
          st.cost :=
            !(st.cost) + Cost.store
            + Cost.heap_pressure (Allocator.live_bytes st.alloc);
          let fr = st.fr in
          let addr = Machine.reg_int fr p in
          if Bytes.unsafe_get fr.Machine.tags s <> '\000' then
            raise (Machine.Vm_error "store: float value into int slot");
          Mem.write_int st.mem addr n (Machine.reg_get fr.Machine.bits (s lsl 3))
    | L.Lstore (L.Kint n, L.Lconst (L.I y), L.Lreg p) ->
        fun st ->
          st.cost :=
            !(st.cost) + Cost.store
            + Cost.heap_pressure (Allocator.live_bytes st.alloc);
          Mem.write_int st.mem (Machine.reg_int st.fr p) n y
    | L.Lstore (L.Kfloat, L.Lreg s, L.Lreg p) ->
        fun st ->
          st.cost :=
            !(st.cost) + Cost.store
            + Cost.heap_pressure (Allocator.live_bytes st.alloc);
          let fr = st.fr in
          let addr = Machine.reg_int fr p in
          Mem.write_int st.mem addr 8 (Machine.reg_get fr.Machine.bits (s lsl 3))
    | L.Lstore (k, v, p) ->
        let ep = op_int p in
        let wr = gwrite k v in
        fun st ->
          st.cost :=
            !(st.cost) + Cost.store
            + Cost.heap_pressure (Allocator.live_bytes st.alloc);
          wr st (ep st)
    (* address computation *)
    | L.Lgep_field (r, off, L.Lreg p) ->
        let o64 = Int64.of_int off in
        fun st ->
          st.cost := !(st.cost) + Cost.gep;
          let fr = st.fr in
          Machine.set_int fr r (Int64.add (Machine.reg_int fr p) o64)
    | L.Lgep_field (r, off, p) ->
        let ep = op_int p in
        let o64 = Int64.of_int off in
        fun st ->
          st.cost := !(st.cost) + Cost.gep;
          Machine.set_int st.fr r (Int64.add (ep st) o64)
    | L.Lgep_index (r, esz, L.Lreg p, L.Lreg i) ->
        let e64 = Int64.of_int esz in
        fun st ->
          st.cost := !(st.cost) + Cost.gep;
          let fr = st.fr in
          let base = Machine.reg_int fr p in
          let idx = Machine.reg_int fr i in
          Machine.set_int fr r (Int64.add base (Int64.mul idx e64))
    | L.Lgep_index (r, esz, L.Lreg p, L.Lconst (L.I idx)) ->
        let off = Int64.mul idx (Int64.of_int esz) in
        fun st ->
          st.cost := !(st.cost) + Cost.gep;
          let fr = st.fr in
          Machine.set_int fr r (Int64.add (Machine.reg_int fr p) off)
    | L.Lgep_index (r, esz, p, i) ->
        let ep = op_int p and ei = op_int i in
        let e64 = Int64.of_int esz in
        fun st ->
          st.cost := !(st.cost) + Cost.gep;
          let base = ep st in
          let idx = ei st in
          Machine.set_int st.fr r (Int64.add base (Int64.mul idx e64))
    | L.Lmov (r, L.Lreg s) ->
        fun st ->
          st.cost := !(st.cost) + Cost.cast;
          let fr = st.fr in
          Bytes.unsafe_set fr.Machine.tags r (Bytes.unsafe_get fr.Machine.tags s);
          Machine.reg_set fr.Machine.bits (r lsl 3)
            (Machine.reg_get fr.Machine.bits (s lsl 3))
    | L.Lmov (r, p) ->
        let cp = cop_copy r p in
        fun st ->
          st.cost := !(st.cost) + Cost.cast;
          cp st
    (* integer ALU: right-to-left operand order, like the lowered engine *)
    | L.Lbinop (r, op, w, L.Lreg ra, L.Lreg rb) ->
        fun st ->
          st.cost := !(st.cost) + Cost.alu;
          let fr = st.fr in
          let vb = Machine.reg_int fr rb in
          let va = Machine.reg_int fr ra in
          Machine.set_int fr r (Machine.exec_binop op w va vb)
    | L.Lbinop (r, op, w, L.Lreg ra, L.Lconst (L.I kb)) ->
        fun st ->
          st.cost := !(st.cost) + Cost.alu;
          let fr = st.fr in
          let va = Machine.reg_int fr ra in
          Machine.set_int fr r (Machine.exec_binop op w va kb)
    | L.Lbinop (r, op, w, L.Lconst (L.I ka), L.Lreg rb) ->
        fun st ->
          st.cost := !(st.cost) + Cost.alu;
          let fr = st.fr in
          let vb = Machine.reg_int fr rb in
          Machine.set_int fr r (Machine.exec_binop op w ka vb)
    | L.Lbinop (r, op, w, a, b) ->
        let eb = op_int b and ea = op_int a in
        fun st ->
          st.cost := !(st.cost) + Cost.alu;
          let vb = eb st in
          let va = ea st in
          Machine.set_int st.fr r (Machine.exec_binop op w va vb)
    | L.Lfbinop (r, op, L.Lreg ra, L.Lreg rb) ->
        fun st ->
          st.cost := !(st.cost) + Cost.falu;
          let fr = st.fr in
          let y = Machine.reg_float fr rb in
          let x = Machine.reg_float fr ra in
          let v =
            match op with
            | Inst.Fadd -> x +. y
            | Inst.Fsub -> x -. y
            | Inst.Fmul -> x *. y
            | Inst.Fdiv -> x /. y
          in
          Machine.set_float fr r v
    | L.Lfbinop (r, op, L.Lreg ra, L.Lconst (L.F y)) ->
        fun st ->
          st.cost := !(st.cost) + Cost.falu;
          let fr = st.fr in
          let x = Machine.reg_float fr ra in
          let v =
            match op with
            | Inst.Fadd -> x +. y
            | Inst.Fsub -> x -. y
            | Inst.Fmul -> x *. y
            | Inst.Fdiv -> x /. y
          in
          Machine.set_float fr r v
    | L.Lfbinop (r, op, a, b) ->
        let eb = op_float b and ea = op_float a in
        fun st ->
          st.cost := !(st.cost) + Cost.falu;
          let y = eb st in
          let x = ea st in
          let v =
            match op with
            | Inst.Fadd -> x +. y
            | Inst.Fsub -> x -. y
            | Inst.Fmul -> x *. y
            | Inst.Fdiv -> x /. y
          in
          Machine.set_float st.fr r v
    | L.Licmp (r, c, w, L.Lreg ra, L.Lreg rb) ->
        fun st ->
          st.cost := !(st.cost) + Cost.cmp;
          let fr = st.fr in
          let vb = Machine.reg_int fr rb in
          let va = Machine.reg_int fr ra in
          Machine.set_int fr r (Machine.exec_icmp c w va vb)
    | L.Licmp (r, c, w, L.Lreg ra, L.Lconst (L.I kb)) ->
        fun st ->
          st.cost := !(st.cost) + Cost.cmp;
          let fr = st.fr in
          let va = Machine.reg_int fr ra in
          Machine.set_int fr r (Machine.exec_icmp c w va kb)
    | L.Licmp (r, c, w, L.Lconst (L.I ka), L.Lreg rb) ->
        fun st ->
          st.cost := !(st.cost) + Cost.cmp;
          let fr = st.fr in
          let vb = Machine.reg_int fr rb in
          Machine.set_int fr r (Machine.exec_icmp c w ka vb)
    | L.Licmp (r, c, w, a, b) ->
        let eb = op_int b and ea = op_int a in
        fun st ->
          st.cost := !(st.cost) + Cost.cmp;
          let vb = eb st in
          let va = ea st in
          Machine.set_int st.fr r (Machine.exec_icmp c w va vb)
    | L.Lfcmp (r, c, L.Lreg ra, L.Lreg rb) ->
        fun st ->
          st.cost := !(st.cost) + Cost.cmp;
          let fr = st.fr in
          let vb = Machine.reg_float fr rb in
          let va = Machine.reg_float fr ra in
          Machine.set_int fr r (Machine.exec_fcmp c va vb)
    | L.Lfcmp (r, c, a, b) ->
        let eb = op_float b and ea = op_float a in
        fun st ->
          st.cost := !(st.cost) + Cost.cmp;
          let vb = eb st in
          let va = ea st in
          Machine.set_int st.fr r (Machine.exec_fcmp c va vb)
    (* casts *)
    | L.Lint_cast (r, w, signed, src_w, L.Lreg s) ->
        if signed then fun st ->
          st.cost := !(st.cost) + Cost.cast;
          let fr = st.fr in
          Machine.set_int fr r
            (Lower.truncate_to w (Lower.sign_extend src_w (Machine.reg_int fr s)))
        else fun st ->
          st.cost := !(st.cost) + Cost.cast;
          let fr = st.fr in
          Machine.set_int fr r (Lower.truncate_to w (Machine.reg_int fr s))
    | L.Lint_cast (r, w, signed, src_w, v) ->
        let ev = op_int v in
        fun st ->
          st.cost := !(st.cost) + Cost.cast;
          let x = ev st in
          let x = if signed then Lower.sign_extend src_w x else x in
          Machine.set_int st.fr r (Lower.truncate_to w x)
    | L.Lf_to_i (r, w, L.Lreg s) ->
        fun st ->
          st.cost := !(st.cost) + Cost.cast;
          let fr = st.fr in
          Machine.set_int fr r
            (Lower.truncate_to w (Int64.of_float (Machine.reg_float fr s)))
    | L.Lf_to_i (r, w, v) ->
        let ev = op_float v in
        fun st ->
          st.cost := !(st.cost) + Cost.cast;
          Machine.set_int st.fr r (Lower.truncate_to w (Int64.of_float (ev st)))
    | L.Li_to_f (r, src_w, L.Lreg s) ->
        fun st ->
          st.cost := !(st.cost) + Cost.cast;
          let fr = st.fr in
          Machine.set_float fr r
            (Int64.to_float (Lower.sign_extend src_w (Machine.reg_int fr s)))
    | L.Li_to_f (r, src_w, v) ->
        let ev = op_int v in
        fun st ->
          st.cost := !(st.cost) + Cost.cast;
          Machine.set_float st.fr r (Int64.to_float (Lower.sign_extend src_w (ev st)))
    | L.Lselect (r, c, a, b) -> (
        let ca = cop_copy r a and cb = cop_copy r b in
        match c with
        | L.Lreg rc ->
            fun st ->
              st.cost := !(st.cost) + Cost.select;
              if Int64.equal (Machine.reg_int st.fr rc) 0L then cb st else ca st
        | _ ->
            let ec = op_int c in
            fun st ->
              st.cost := !(st.cost) + Cost.select;
              if Int64.equal (ec st) 0L then cb st else ca st)
    | L.Lcall (r, callee, args, cost) -> (
        let eas = Array.map op_val args in
        let nargs = Array.length eas in
        let eval_args st =
          let argv = Array.make nargs (L.I 0L) in
          for i = 0 to nargs - 1 do
            argv.(i) <- (Array.unsafe_get eas i) st
          done;
          argv
        in
        match callee with
        | L.Lfun lf ->
            fun st ->
              st.cost := !(st.cost) + cost;
              let argv = eval_args st in
              finish st r lf.L.lname (R.call_lfun st.rt lf argv)
        | L.Lextern (slot, name) ->
            fun st ->
              st.cost := !(st.cost) + cost;
              let argv = eval_args st in
              finish st r name (R.call_extern_slot st.rt slot name argv)
        | L.Lindirect o ->
            let eo = op_int o in
            fun st ->
              st.cost := !(st.cost) + cost;
              let addr = eo st in
              let name = R.indirect_name st.rt addr in
              let argv = eval_args st in
              finish st r name (R.call_named st.rt name argv))
    | L.Lpoison e -> fun _ -> raise e
    (* fused superinstructions: gep charge, address compute, address-
       register write, access charge, access — the order of the
       two-instruction originals *)
    | L.Lload_idx (r, L.Kint n, rp, esz, L.Lreg p, L.Lreg i) ->
        let e64 = Int64.of_int esz in
        fun st ->
          st.cost := !(st.cost) + Cost.gep;
          let fr = st.fr in
          let base = Machine.reg_int fr p in
          let idx = Machine.reg_int fr i in
          let addr = Int64.add base (Int64.mul idx e64) in
          Machine.set_int fr rp addr;
          st.cost :=
            !(st.cost) + Cost.load
            + Cost.heap_pressure (Allocator.live_bytes st.alloc);
          Machine.set_int fr r (Mem.read_int st.mem addr n)
    | L.Lload_idx (r, L.Kfloat, rp, esz, L.Lreg p, L.Lreg i) ->
        let e64 = Int64.of_int esz in
        fun st ->
          st.cost := !(st.cost) + Cost.gep;
          let fr = st.fr in
          let base = Machine.reg_int fr p in
          let idx = Machine.reg_int fr i in
          let addr = Int64.add base (Int64.mul idx e64) in
          Machine.set_int fr rp addr;
          st.cost :=
            !(st.cost) + Cost.load
            + Cost.heap_pressure (Allocator.live_bytes st.alloc);
          Bytes.unsafe_set fr.Machine.tags r '\001';
          Machine.reg_set fr.Machine.bits (r lsl 3) (Mem.read_int st.mem addr 8)
    | L.Lload_idx (r, k, rp, esz, p, i) -> (
        let ep = op_int p and ei = op_int i in
        let e64 = Int64.of_int esz in
        let access : cstate -> int64 -> unit =
          match k with
          | L.Kint n ->
              fun st addr -> Machine.set_int st.fr r (Mem.read_int st.mem addr n)
          | L.Kfloat ->
              fun st addr ->
                let fr = st.fr in
                Bytes.unsafe_set fr.Machine.tags r '\001';
                Machine.reg_set fr.Machine.bits (r lsl 3)
                  (Mem.read_int st.mem addr 8)
          | L.Kbad ->
              fun _ _ -> raise (Machine.Vm_error "load of non-scalar")
        in
        fun st ->
          st.cost := !(st.cost) + Cost.gep;
          let base = ep st in
          let idx = ei st in
          let addr = Int64.add base (Int64.mul idx e64) in
          Machine.set_int st.fr rp addr;
          st.cost :=
            !(st.cost) + Cost.load
            + Cost.heap_pressure (Allocator.live_bytes st.alloc);
          access st addr)
    | L.Lload_fld (r, L.Kint n, rp, off, L.Lreg p) ->
        let o64 = Int64.of_int off in
        fun st ->
          st.cost := !(st.cost) + Cost.gep;
          let fr = st.fr in
          let addr = Int64.add (Machine.reg_int fr p) o64 in
          Machine.set_int fr rp addr;
          st.cost :=
            !(st.cost) + Cost.load
            + Cost.heap_pressure (Allocator.live_bytes st.alloc);
          Machine.set_int fr r (Mem.read_int st.mem addr n)
    | L.Lload_fld (r, L.Kfloat, rp, off, L.Lreg p) ->
        let o64 = Int64.of_int off in
        fun st ->
          st.cost := !(st.cost) + Cost.gep;
          let fr = st.fr in
          let addr = Int64.add (Machine.reg_int fr p) o64 in
          Machine.set_int fr rp addr;
          st.cost :=
            !(st.cost) + Cost.load
            + Cost.heap_pressure (Allocator.live_bytes st.alloc);
          Bytes.unsafe_set fr.Machine.tags r '\001';
          Machine.reg_set fr.Machine.bits (r lsl 3) (Mem.read_int st.mem addr 8)
    | L.Lload_fld (r, k, rp, off, p) -> (
        let ep = op_int p in
        let o64 = Int64.of_int off in
        let access : cstate -> int64 -> unit =
          match k with
          | L.Kint n ->
              fun st addr -> Machine.set_int st.fr r (Mem.read_int st.mem addr n)
          | L.Kfloat ->
              fun st addr ->
                let fr = st.fr in
                Bytes.unsafe_set fr.Machine.tags r '\001';
                Machine.reg_set fr.Machine.bits (r lsl 3)
                  (Mem.read_int st.mem addr 8)
          | L.Kbad ->
              fun _ _ -> raise (Machine.Vm_error "load of non-scalar")
        in
        fun st ->
          st.cost := !(st.cost) + Cost.gep;
          let addr = Int64.add (ep st) o64 in
          Machine.set_int st.fr rp addr;
          st.cost :=
            !(st.cost) + Cost.load
            + Cost.heap_pressure (Allocator.live_bytes st.alloc);
          access st addr)
    | L.Lstore_idx (L.Kint n, L.Lreg s, rp, esz, L.Lreg p, L.Lreg i) ->
        let e64 = Int64.of_int esz in
        fun st ->
          st.cost := !(st.cost) + Cost.gep;
          let fr = st.fr in
          let base = Machine.reg_int fr p in
          let idx = Machine.reg_int fr i in
          let addr = Int64.add base (Int64.mul idx e64) in
          Machine.set_int fr rp addr;
          st.cost :=
            !(st.cost) + Cost.store
            + Cost.heap_pressure (Allocator.live_bytes st.alloc);
          if Bytes.unsafe_get fr.Machine.tags s <> '\000' then
            raise (Machine.Vm_error "store: float value into int slot");
          Mem.write_int st.mem addr n (Machine.reg_get fr.Machine.bits (s lsl 3))
    | L.Lstore_idx (L.Kint n, L.Lconst (L.I y), rp, esz, L.Lreg p, L.Lreg i) ->
        let e64 = Int64.of_int esz in
        fun st ->
          st.cost := !(st.cost) + Cost.gep;
          let fr = st.fr in
          let base = Machine.reg_int fr p in
          let idx = Machine.reg_int fr i in
          let addr = Int64.add base (Int64.mul idx e64) in
          Machine.set_int fr rp addr;
          st.cost :=
            !(st.cost) + Cost.store
            + Cost.heap_pressure (Allocator.live_bytes st.alloc);
          Mem.write_int st.mem addr n y
    | L.Lstore_idx (k, v, rp, esz, p, i) ->
        let ep = op_int p and ei = op_int i in
        let e64 = Int64.of_int esz in
        let wr = gwrite k v in
        fun st ->
          st.cost := !(st.cost) + Cost.gep;
          let base = ep st in
          let idx = ei st in
          let addr = Int64.add base (Int64.mul idx e64) in
          Machine.set_int st.fr rp addr;
          st.cost :=
            !(st.cost) + Cost.store
            + Cost.heap_pressure (Allocator.live_bytes st.alloc);
          wr st addr
    | L.Lstore_fld (L.Kint n, L.Lreg s, rp, off, L.Lreg p) ->
        let o64 = Int64.of_int off in
        fun st ->
          st.cost := !(st.cost) + Cost.gep;
          let fr = st.fr in
          let addr = Int64.add (Machine.reg_int fr p) o64 in
          Machine.set_int fr rp addr;
          st.cost :=
            !(st.cost) + Cost.store
            + Cost.heap_pressure (Allocator.live_bytes st.alloc);
          if Bytes.unsafe_get fr.Machine.tags s <> '\000' then
            raise (Machine.Vm_error "store: float value into int slot");
          Mem.write_int st.mem addr n (Machine.reg_get fr.Machine.bits (s lsl 3))
    | L.Lstore_fld (k, v, rp, off, p) ->
        let ep = op_int p in
        let o64 = Int64.of_int off in
        let wr = gwrite k v in
        fun st ->
          st.cost := !(st.cost) + Cost.gep;
          let addr = Int64.add (ep st) o64 in
          Machine.set_int st.fr rp addr;
          st.cost :=
            !(st.cost) + Cost.store
            + Cost.heap_pressure (Allocator.live_bytes st.alloc);
          wr st addr

  (* ---- terminators ------------------------------------------------- *)

  let resolve = function L.Bidx i -> i | L.Braise e -> raise e

  (* fused compare-and-branch, shared by [Lcmpbr] and [Lcmpcheck] (the
     check's compare event only exists under a trace sink, which the
     compiled tier never runs under) *)
  let cmpbr r c w a b t1 t2 : cstate -> int =
    match (a, b, t1, t2) with
    | L.Lreg ra, L.Lreg rb, L.Bidx i1, L.Bidx i2 ->
        fun st ->
          st.cost := !(st.cost) + Cost.cmp;
          let fr = st.fr in
          let vb = Machine.reg_int fr rb in
          let va = Machine.reg_int fr ra in
          let v = Machine.exec_icmp c w va vb in
          Machine.set_int fr r v;
          st.cost := !(st.cost) + Cost.cond_branch;
          if Int64.equal v 0L then i2 else i1
    | L.Lreg ra, L.Lconst (L.I kb), L.Bidx i1, L.Bidx i2 ->
        fun st ->
          st.cost := !(st.cost) + Cost.cmp;
          let fr = st.fr in
          let va = Machine.reg_int fr ra in
          let v = Machine.exec_icmp c w va kb in
          Machine.set_int fr r v;
          st.cost := !(st.cost) + Cost.cond_branch;
          if Int64.equal v 0L then i2 else i1
    | _ ->
        let eb = op_int b and ea = op_int a in
        fun st ->
          st.cost := !(st.cost) + Cost.cmp;
          let vb = eb st in
          let va = ea st in
          let v = Machine.exec_icmp c w va vb in
          Machine.set_int st.fr r v;
          st.cost := !(st.cost) + Cost.cond_branch;
          resolve (if Int64.equal v 0L then t2 else t1)

  (* A terminator closure returns the next block index, or -1 for return
     (value parked in [cret]).  An [int] return stays immediate — the one
     closure-to-closure value the hot path is allowed to pass. *)
  let cterm (term : L.lterm) : cstate -> int =
    match term with
    | L.Lbr (L.Bidx i) ->
        fun st ->
          st.cost := !(st.cost) + Cost.branch;
          i
    | L.Lbr (L.Braise e) ->
        fun st ->
          st.cost := !(st.cost) + Cost.branch;
          raise e
    | L.Lcbr (L.Lreg r, L.Bidx i1, L.Bidx i2)
    | L.Lcheck (L.Lreg r, L.Bidx i1, L.Bidx i2, _, _) ->
        fun st ->
          st.cost := !(st.cost) + Cost.cond_branch;
          if Int64.equal (Machine.reg_int st.fr r) 0L then i2 else i1
    | L.Lcbr (c, t1, t2) | L.Lcheck (c, t1, t2, _, _) ->
        let ec = op_int c in
        fun st ->
          st.cost := !(st.cost) + Cost.cond_branch;
          resolve (if Int64.equal (ec st) 0L then t2 else t1)
    | L.Lcmpbr (r, c, w, a, b, t1, t2) -> cmpbr r c w a b t1 t2
    | L.Lcmpcheck (r, c, w, a, b, t1, t2, _, _) -> cmpbr r c w a b t1 t2
    | L.Lret None ->
        fun st ->
          st.cost := !(st.cost) + Cost.ret;
          st.cret <- None;
          -1
    | L.Lret (Some o) ->
        let eo = op_val o in
        fun st ->
          st.cost := !(st.cost) + Cost.ret;
          st.cret <- Some (eo st);
          -1
    | L.Lunreachable msg -> fun _ -> raise (Machine.Vm_error msg)

  (* ---- superinstruction fusion and block assembly ------------------ *)

  (* Fuse a straight-line run of steps into a right-leaning chain, up to
     three steps per node: each node is one closure invocation for three
     instructions, and the tail call into the next node keeps the chain
     allocation-free at run time. *)
  let rec fuse (steps : step array) i (term : cstate -> int) : cstate -> int =
    let n = Array.length steps in
    if i >= n then term
    else if n - i >= 3 then begin
      let a = steps.(i) and b = steps.(i + 1) and c = steps.(i + 2) in
      let rest = fuse steps (i + 3) term in
      fun st ->
        a st;
        b st;
        c st;
        rest st
    end
    else if n - i = 2 then begin
      let a = steps.(i) and b = steps.(i + 1) in
      fun st ->
        a st;
        b st;
        term st
    end
    else begin
      let a = steps.(i) in
      fun st ->
        a st;
        term st
    end

  (* One closure per basic block.  The prologue replicates
     [Vm.check_budget] exactly — budget test, then the captured step-poll
     hook — so timeouts and cooperative cancellation fire at the same
     block boundaries as the lowered engine (cancellation leaves compiled
     code by unwinding: the raise has no state to save). *)
  let cblock (b : L.lblock) : cstate -> int =
    let body = fuse (Array.map cinst b.L.linsts) 0 (cterm b.L.lterm) in
    fun st ->
      if !(st.cost) > st.budget then raise Machine.Timeout_exceeded;
      (match st.poll with None -> () | Some f -> f ());
      body st

  type cfunc = (cstate -> int) array

  (* The compiled code hangs off the shared [lfunc] through [Lower]'s
     extensible attachment slot, so the lowering stays compiler-agnostic
     and recompilation after [Make] is re-applied (it never is in
     production: [Vm] applies it once) would just shadow the constructor. *)
  type L.tier3 += Compiled of cfunc

  let code_for (lf : L.lfunc) : cfunc =
    match lf.L.ltier3 with
    | Compiled cf -> cf
    | _ ->
        let cf = Array.map cblock lf.L.lblocks in
        lf.L.ltier3 <- Compiled cf;
        Atomic.incr promotions;
        cf

  (* Drive loop: run block closures until the function returns, with a
     single array load and compare between blocks. *)
  let enter (rt : R.t) (lf : L.lfunc) (fr : Machine.lframe) (idx0 : int) :
      L.value option =
    let blocks = code_for lf in
    let st =
      {
        rt;
        cost = R.cost rt;
        budget = R.budget rt;
        poll = Machine.poll_hook ();
        mem = R.mem rt;
        alloc = R.alloc rt;
        fr;
        cret = None;
      }
    in
    let rec go idx =
      let n = (Array.unsafe_get blocks idx) st in
      if n < 0 then st.cret else go n
    in
    go idx0
end
