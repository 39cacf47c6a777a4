(** The interpreter: executes an IR program against the simulated memory
    subsystem, charging the {!Cost} model, dispatching external functions,
    and classifying the run per {!Outcome}.

    Two engines share all VM state and must agree bit-for-bit:

    - the production engine (used by {!run}) lowers the program once
      ({!Lower}) and closure-compiles each function at its first call
      ({!Compile});
    - the {b reference} engine ({!run_reference}) is the original
      tree-walking interpreter over {!Func.t}, kept as the executable
      specification the differential tests compare against.

    The [on_reference] flag routes {!call_function}, so externs that
    re-enter the interpreter (e.g. the qsort comparator callback) stay on
    whichever engine started the run. *)

open Dpmr_ir
open Dpmr_memsim
open Types
open Inst
module L = Lower
module Trace = Dpmr_trace.Trace

type value = Lower.value = I of int64 | F of float

(* The classification exceptions, the step-poll hook and the scalar-op
   semantics live in {!Machine}, shared with the compiled engine
   ({!Compile}, instantiated below).  Rebinding keeps the constructors
   physically identical, so a [Machine.Vm_error] raised from compiled
   code is caught by [classify_run] below. *)
exception Exit_program = Machine.Exit_program
exception Dpmr_detected = Machine.Dpmr_detected
exception Timeout_exceeded = Machine.Timeout_exceeded
exception Vm_error = Machine.Vm_error
exception Cancelled = Machine.Cancelled

let poll_key = Machine.poll_key
let set_poll_hook = Machine.set_poll_hook

(* ------------------------------------------------------------------ *)
(* Engine selection                                                    *)
(* ------------------------------------------------------------------ *)

(** Which engine {!run} uses.  [Tier_compiled] (the default) is the
    production engine; [Tier_ref] pins the reference tree-walker, for
    differential testing.  Process-global: set it before spawning worker
    domains. *)
type tier_mode = Tier_compiled | Tier_ref

let tier_mode_ref = ref Tier_compiled
let set_tier_mode m = tier_mode_ref := m
let tier_mode () = !tier_mode_ref

type t = {
  prog : Prog.t;
  lprog : Lower.prog;
  mem : Mem.t;
  alloc : Allocator.t;
  mutable sp : int64;
  global_addr : (string, int64) Hashtbl.t;
  fun_addr : (string, int64) Hashtbl.t;
  addr_fun : (int64, string) Hashtbl.t;
  mutable next_fun_addr : int64;
  out : Buffer.t;
  cost : int ref;
      (** a [ref] rather than a mutable field so compiled code can
          capture it once per call and charge without touching [t] *)
  mutable budget : int;  (** raise {!Timeout_exceeded} when cost exceeds *)
  rng : Rng.t;
  externs : (string, extern) Hashtbl.t;
  extern_slots : extern option array;
      (** per-VM resolution of the {!Lower.Lextern} call slots *)
  mutable fi_first_cost : int option;
  mutable call_depth : int;
  mutable on_reference : bool;  (** engine selector for {!call_function} *)
  trace : Trace.t option;
      (** the domain's trace sink, captured once at {!create} — a [t]
          field rather than a per-event DLS read so the disabled case
          costs one immediate pointer test on each would-be event *)
}

and extern = t -> value list -> value option

let add_cost t c = t.cost := !(t.cost) + c

let check_budget t =
  if !(t.cost) > t.budget then raise Timeout_exceeded;
  match Domain.DLS.get poll_key with None -> () | Some f -> f ()

let as_int = function I v -> v | F _ -> raise (Vm_error "expected int/pointer value")
let as_float = function F v -> v | I _ -> raise (Vm_error "expected float value")

(* eta-expanded so the calls inline: a bare closure alias would route
   every ALU instruction through a generic (boxing) application *)
let[@inline] truncate_to w v = Lower.truncate_to w v
let[@inline] sign_extend w v = Lower.sign_extend w v

(* ------------------------------------------------------------------ *)
(* Construction and program loading                                    *)
(* ------------------------------------------------------------------ *)

let fun_address t name =
  match Hashtbl.find_opt t.fun_addr name with
  | Some a -> a
  | None ->
      let a = t.next_fun_addr in
      t.next_fun_addr <- Int64.add a 16L;
      Hashtbl.replace t.fun_addr name a;
      Hashtbl.replace t.addr_fun a name;
      a

(* [Hashtbl.find], not [find_opt]: globals are read inside hot loops and
   the intermediate [Some] would be an allocation per access *)
let global_address t name =
  match Hashtbl.find t.global_addr name with
  | a -> a
  | exception Not_found ->
      raise (Vm_error (Printf.sprintf "no address for global %S" name))

(* Write a structural initializer at [addr]. *)
let rec write_ginit t addr ty (g : Prog.ginit) =
  let tenv = t.prog.tenv in
  match (g, ty) with
  | Prog.Gzero, _ -> Mem.fill t.mem addr (Layout.size_of tenv ty) 0
  | Prog.Gint v, Int w -> Mem.write_int t.mem addr (bytes_of_width w) v
  | Prog.Gfloat x, Float -> Mem.write_f64 t.mem addr x
  | Prog.Gptr_null, Ptr _ -> Mem.write_int t.mem addr 8 0L
  | Prog.Gptr_global gname, Ptr _ -> Mem.write_int t.mem addr 8 (global_address t gname)
  | Prog.Gptr_fun fname, Ptr _ -> Mem.write_int t.mem addr 8 (fun_address t fname)
  | Prog.Gstring s, Arr (Int W8, n) ->
      let len = min (String.length s) (n - 1) in
      for i = 0 to len - 1 do
        Mem.write_u8 t.mem (Int64.add addr (Int64.of_int i)) (Char.code s.[i])
      done;
      Mem.fill t.mem (Int64.add addr (Int64.of_int len)) (n - len) 0
  | Prog.Gagg gs, Arr (e, n) ->
      let esz = Layout.size_of tenv e in
      List.iteri
        (fun i gi ->
          if i < n then write_ginit t (Int64.add addr (Int64.of_int (i * esz))) e gi)
        gs
  | Prog.Gagg gs, Struct sname ->
      (* walk initializers, field types and offsets together — indexing
         the lists per element made large struct initializers quadratic *)
      let rec go gs fields offs =
        match (gs, fields, offs) with
        | [], _, _ -> ()
        | gi :: gs', fty :: fields', off :: offs' ->
            write_ginit t (Int64.add addr (Int64.of_int off)) fty gi;
            go gs' fields' offs'
        | _ :: _, _, _ ->
            (* more initializers than fields: fail as [List.nth] did *)
            raise (Failure "nth")
      in
      go gs (Tenv.fields tenv sname) (Layout.field_offsets tenv sname)
  | _ ->
      raise
        (Vm_error
           (Fmt.str "bad global initializer for type %a" Types.pp ty))

let layout_globals t =
  let cursor = ref Mem.globals_base in
  (* first pass: assign addresses (initializers may reference any global) *)
  Prog.iter_globals t.prog (fun g ->
      let tenv = t.prog.tenv in
      let size = max 1 (Layout.size_of tenv g.gty) in
      let algn = Layout.align_of tenv g.gty in
      let addr =
        Int64.of_int (Layout.round_up (Int64.to_int !cursor) algn)
      in
      Mem.map_range t.mem addr size Mem.Fill_zero;
      Hashtbl.replace t.global_addr g.gname addr;
      cursor := Int64.add addr (Int64.of_int size));
  (* second pass: write initializers *)
  Prog.iter_globals t.prog (fun g ->
      write_ginit t (Hashtbl.find t.global_addr g.gname) g.gty g.ginit)

let create ?(seed = 42L) ?(budget = 2_000_000_000L) ?lowered prog =
  let lprog =
    match lowered with
    | Some lp when lp.L.src == prog -> lp
    | Some _ | None -> Lower.lower_prog prog
  in
  let mem = Mem.create ~seed () in
  let t =
    {
      prog;
      lprog;
      mem;
      alloc = Allocator.create mem;
      sp = Mem.stack_base;
      global_addr = Hashtbl.create 32;
      fun_addr = Hashtbl.create 32;
      addr_fun = Hashtbl.create 32;
      next_fun_addr = 0x2000_0000L;
      out = Buffer.create 256;
      cost = ref 0;
      budget = Int64.to_int budget;
      rng = Rng.create seed;
      externs = Hashtbl.create 64;
      extern_slots = Array.make lprog.L.n_slots None;
      fi_first_cost = None;
      call_depth = 0;
      on_reference = false;
      trace = Trace.current ();
    }
  in
  (* the allocator and phase markers timestamp events through the sink's
     clock; point it at this VM's cost counter *)
  (match t.trace with
  | Some s -> Trace.set_clock s (fun () -> !(t.cost))
  | None -> ());
  layout_globals t;
  t

let register_extern t name fn =
  Hashtbl.replace t.externs name fn;
  (* keep any already-bound call slot in sync with the re-registration *)
  match Hashtbl.find_opt t.lprog.L.slot_of_name name with
  | Some i -> t.extern_slots.(i) <- Some fn
  | None -> ()

(* ------------------------------------------------------------------ *)
(* Shared execution helpers                                            *)
(* ------------------------------------------------------------------ *)

type frame = { regs : value array; entry_sp : int64 }

let max_call_depth = 10_000

let enter_call t =
  if t.call_depth >= max_call_depth then raise (Vm_error "stack overflow");
  t.call_depth <- t.call_depth + 1

let leave_call t = t.call_depth <- t.call_depth - 1

(* Reference-engine scalar moves (lowering bakes the kind instead). *)

let load_scalar t ty addr =
  match ty with
  | Float -> F (Mem.read_f64 t.mem addr)
  | Int w -> I (Mem.read_int t.mem addr (bytes_of_width w))
  | Ptr _ -> I (Mem.read_int t.mem addr 8)
  | _ -> raise (Vm_error "load of non-scalar")

let store_scalar t ty addr v =
  match (ty, v) with
  | Float, F x -> Mem.write_f64 t.mem addr x
  | Float, I bits -> Mem.write_f64 t.mem addr (Int64.float_of_bits bits)
  | Int w, I x -> Mem.write_int t.mem addr (bytes_of_width w) x
  | Ptr _, I x -> Mem.write_int t.mem addr 8 x
  | Int _, F _ | Ptr _, F _ -> raise (Vm_error "store: float value into int slot")
  | _ -> raise (Vm_error "store of non-scalar")

let unknown_function name =
  raise (Vm_error (Printf.sprintf "call to unknown function %S" name))

(* ------------------------------------------------------------------ *)
(* The production engine                                               *)
(* ------------------------------------------------------------------ *)

(* The runtime view {!Compile} programs against.  Externs re-enter
   through the closures registered in the VM, never through this module,
   so the engine needs no knot with the reference interpreter below. *)
module Rt = struct
  type nonrec t = t

  let cost t = t.cost
  let budget t = t.budget
  let mem t = t.mem
  let alloc t = t.alloc
  let sp t = t.sp
  let set_sp t v = t.sp <- v
  let global_address = global_address
  let fun_address = fun_address
  let trace t = t.trace
  let enter_call = enter_call
  let leave_call = leave_call
  let lfunc t name = Hashtbl.find_opt t.lprog.L.funcs name

  let call_extern t name argv =
    match Hashtbl.find_opt t.externs name with
    | Some fn -> fn t (Array.to_list argv)
    | None -> unknown_function name

  (* the [Lextern] slot protocol: slot cache, extern table with cache
     fill, unknown-function error — in that order *)
  let call_extern_slot t slot name argv =
    match t.extern_slots.(slot) with
    | Some fn -> fn t (Array.to_list argv)
    | None -> (
        match Hashtbl.find_opt t.externs name with
        | Some fn ->
            t.extern_slots.(slot) <- Some fn;
            fn t (Array.to_list argv)
        | None -> unknown_function name)

  let indirect_name t addr =
    match Hashtbl.find_opt t.addr_fun addr with
    | Some name -> name
    | None -> raise (Mem.Fault (Mem.Unmapped addr))
end

module Compiled = Compile.Make (Rt)

(* the constant second field keeps the telemetry schema's deopt count *)
let tier_stats () = (Compile.n_compiled (), 0)

(* ------------------------------------------------------------------ *)
(* Calls by name (externs re-enter here, routed on [on_reference]) and  *)
(* the reference engine                                                 *)
(* ------------------------------------------------------------------ *)

let rec call_function t name args =
  if not t.on_reference then
    match Hashtbl.find_opt t.lprog.L.funcs name with
    | Some lf -> Compiled.call t lf (Array.of_list args)
    | None -> (
        match Hashtbl.find_opt t.externs name with
        | Some fn -> fn t args
        | None -> unknown_function name)
  else
    match Hashtbl.find_opt t.prog.funcs name with
    | Some f -> exec_func t f args
    | None -> (
        match Hashtbl.find_opt t.externs name with
        | Some fn -> fn t args
        | None -> unknown_function name)

and exec_func t (f : Func.t) args =
  enter_call t;
  let frame = { regs = Array.make f.next_reg (I 0xDEADBEEFL); entry_sp = t.sp } in
  (* bind arguments by walking params and args together (indexing the
     argument list per param was quadratic in arity); a short argument
     list fails at the first missing index, as before *)
  let rec bind i params args =
    match (params, args) with
    | [], _ -> ()
    | (r, _) :: params', v :: args' ->
        frame.regs.(r) <- v;
        bind (i + 1) params' args'
    | _ :: _, [] ->
        raise (Vm_error (Printf.sprintf "%s: missing argument %d" f.name i))
  in
  bind 0 f.params args;
  (match t.trace with
  | Some s -> Trace.emit_call_enter s ~cost:(!(t.cost)) ~fname:f.name
  | None -> ());
  let result = exec_blocks t f frame in
  (match t.trace with
  | Some s -> Trace.emit_call_exit s ~cost:(!(t.cost)) ~fname:f.name
  | None -> ());
  t.sp <- frame.entry_sp;
  leave_call t;
  result

and exec_blocks t f frame =
  let rec run (b : Func.block) =
    check_budget t;
    (match t.trace with
    | Some s -> Trace.sample_block s ~cost:(!(t.cost)) ~fname:f.Func.name ~blk:(-1)
    | None -> ());
    List.iter (exec_inst t f frame) b.insts;
    match b.term with
    | Br l ->
        add_cost t Cost.branch;
        run (Func.find_block f l)
    | Cbr (c, l1, l2) ->
        add_cost t Cost.cond_branch;
        let v = as_int (eval t frame c) in
        run (Func.find_block f (if not (Int64.equal v 0L) then l1 else l2))
    | Ret o ->
        add_cost t Cost.ret;
        Option.map (eval t frame) o
    | Unreachable -> raise (Vm_error (f.name ^ ": executed unreachable"))
  in
  run (Func.entry f)

and eval t frame = function
  | Reg r -> frame.regs.(r)
  | Cint (w, v) -> I (truncate_to w v)
  | Cfloat x -> F x
  | Null _ -> I 0L
  | Global g -> I (global_address t g)
  | Fun_addr f -> I (fun_address t f)

and exec_inst t f frame inst =
  let ev o = eval t frame o in
  let set r v = frame.regs.(r) <- v in
  match inst with
  | Malloc (r, ty, n) ->
      let count = Int64.to_int (as_int (ev n)) in
      if count < 0 then raise (Vm_error "malloc: negative count");
      let bytes = count * Layout.size_of t.prog.tenv ty in
      add_cost t (Cost.malloc_cost bytes);
      set r (I (Allocator.malloc t.alloc bytes))
  | Alloca (r, ty, n) ->
      let count = Int64.to_int (as_int (ev n)) in
      let bytes = max 1 (count * Layout.size_of t.prog.tenv ty) in
      add_cost t (Cost.alloca_cost bytes);
      let algn = Layout.align_of t.prog.tenv ty in
      let addr = Int64.of_int (Layout.round_up (Int64.to_int t.sp) (max 8 algn)) in
      Mem.map_range t.mem addr bytes Mem.Fill_garbage;
      t.sp <- Int64.add addr (Int64.of_int bytes);
      set r (I addr)
  | Free p ->
      add_cost t Cost.free_cost;
      let addr = as_int (ev p) in
      if not (Int64.equal addr 0L) then Allocator.free t.alloc addr
  | Load (r, ty, p) ->
      add_cost t (Cost.load + Cost.heap_pressure (Allocator.live_bytes t.alloc));
      let addr = as_int (ev p) in
      set r (load_scalar t ty addr)
  | Store (ty, v, p) ->
      add_cost t (Cost.store + Cost.heap_pressure (Allocator.live_bytes t.alloc));
      let addr = as_int (ev p) in
      (match t.trace with
      | Some s ->
          Trace.emit_store s ~cost:(!(t.cost)) ~addr
            ~bytes:(Layout.size_of t.prog.tenv ty)
      | None -> ());
      store_scalar t ty addr (ev v)
  | Gep_field (r, sname, p, i) ->
      add_cost t Cost.gep;
      let base = as_int (ev p) in
      let off = Layout.field_offset t.prog.tenv sname i in
      set r (I (Int64.add base (Int64.of_int off)))
  | Gep_index (r, ety, p, i) ->
      add_cost t Cost.gep;
      let base = as_int (ev p) in
      let idx = sign_extend W64 (as_int (ev i)) in
      let esz = Int64.of_int (Layout.size_of t.prog.tenv ety) in
      set r (I (Int64.add base (Int64.mul idx esz)))
  | Bitcast (r, _, p) ->
      add_cost t Cost.cast;
      set r (ev p)
  | Ptr_to_int (r, p) ->
      add_cost t Cost.cast;
      set r (ev p)
  | Int_to_ptr (r, _, v) ->
      add_cost t Cost.cast;
      set r (ev v)
  | Binop (r, op, w, a, b) ->
      add_cost t Cost.alu;
      set r (I (Machine.exec_binop op w (as_int (ev a)) (as_int (ev b))))
  | Fbinop (r, op, a, b) ->
      add_cost t Cost.falu;
      let x = as_float (ev a) and y = as_float (ev b) in
      let v =
        match op with
        | Fadd -> x +. y
        | Fsub -> x -. y
        | Fmul -> x *. y
        | Fdiv -> x /. y
      in
      set r (F v)
  | Icmp (r, c, w, a, b) ->
      add_cost t Cost.cmp;
      set r (I (Machine.exec_icmp c w (as_int (ev a)) (as_int (ev b))))
  | Fcmp (r, c, a, b) ->
      add_cost t Cost.cmp;
      set r (I (Machine.exec_fcmp c (as_float (ev a)) (as_float (ev b))))
  | Int_cast (r, w, signed, v) ->
      add_cost t Cost.cast;
      let x = as_int (ev v) in
      (* source width unknown here; values are kept zero-extended to their
         own width, so sign extension needs the source width — recover it
         from the operand's static type. *)
      let src_w =
        match Prog.operand_ty t.prog f v with
        | Int w -> w
        | _ -> W64
      in
      let x = if signed then sign_extend src_w x else x in
      set r (I (truncate_to w x))
  | F_to_i (r, w, v) ->
      add_cost t Cost.cast;
      let x = as_float (ev v) in
      set r (I (truncate_to w (Int64.of_float x)))
  | I_to_f (r, _, v) ->
      add_cost t Cost.cast;
      let x = as_int (ev v) in
      let src_w =
        match Prog.operand_ty t.prog f v with Int w -> w | _ -> W64
      in
      set r (F (Int64.to_float (sign_extend src_w x)))
  | Select (r, _, c, a, b) ->
      add_cost t Cost.select;
      let cv = as_int (ev c) in
      set r (if not (Int64.equal cv 0L) then ev a else ev b)
  | Call (r, callee, args) ->
      add_cost t (Cost.call_base + (Cost.call_per_arg * List.length args));
      let name =
        match callee with
        | Direct n -> n
        | Indirect o -> (
            let addr = as_int (ev o) in
            match Hashtbl.find_opt t.addr_fun addr with
            | Some n -> n
            | None -> raise (Mem.Fault (Mem.Unmapped addr)))
      in
      let result = call_function t name (List.map ev args) in
      (match (r, result) with
      | Some r, Some v -> set r v
      | Some _, None ->
          raise (Vm_error (Printf.sprintf "%s returned void, result expected" name))
      | None, _ -> ())

(* ------------------------------------------------------------------ *)
(* Top-level driver                                                    *)
(* ------------------------------------------------------------------ *)

(** Set up argv strings in simulated memory; returns (argc, argv). *)
let setup_argv t args =
  let n = List.length args in
  let argv = Allocator.malloc t.alloc (max 8 (8 * n)) in
  List.iteri
    (fun i s ->
      let a = Allocator.malloc t.alloc (String.length s + 1) in
      String.iteri
        (fun j c -> Mem.write_u8 t.mem (Int64.add a (Int64.of_int j)) (Char.code c))
        s;
      Mem.write_u8 t.mem (Int64.add a (Int64.of_int (String.length s))) 0;
      Mem.write_int t.mem (Int64.add argv (Int64.of_int (8 * i))) 8 a)
    args;
  (I (Int64.of_int n), I argv)

let finish_run t outcome =
  {
    Outcome.outcome;
    cost = Int64.of_int !(t.cost);
    output = Buffer.contents t.out;
    peak_heap_bytes = (Allocator.stats t.alloc).peak_bytes;
    mapped_pages = t.mem.mapped_pages;
    fi_first_cost = Option.map Int64.of_int t.fi_first_cost;
  }

let classify_run t body =
  try finish_run t (body ()) with
  | Exit_program 0 -> finish_run t Outcome.Normal
  | Exit_program n -> finish_run t (Outcome.App_exit n)
  | Dpmr_detected msg -> finish_run t (Outcome.Dpmr_detect msg)
  | Timeout_exceeded -> finish_run t Outcome.Timeout
  | Mem.Fault flt -> finish_run t (Outcome.Crash (Mem.fault_to_string flt))
  | Vm_error msg -> finish_run t (Outcome.Crash msg)
  | Stack_overflow -> finish_run t (Outcome.Crash "host stack overflow")

let classify_exit r =
  let code = match r with Some (I v) -> Int64.to_int v | _ -> 0 in
  if code = 0 then Outcome.Normal else Outcome.App_exit code

(* a program without its entry point is a crash of the run, like an
   entry point of the wrong arity, not a host error *)
let undefined_entry entry =
  raise (Vm_error (Printf.sprintf "undefined entry point %S" entry))

(** [run]'s entry protocol on the production engine. *)
let run_compiled ?(entry = "main") ?(args = [ "prog" ]) t =
  t.on_reference <- false;
  classify_run t (fun () ->
      let lf =
        match Hashtbl.find_opt t.lprog.L.funcs entry with
        | Some lf -> lf
        | None -> undefined_entry entry
      in
      let argv_vals =
        match Array.length lf.L.lparams with
        | 0 -> [||]
        | 2 ->
            let argc, argv = setup_argv t args in
            [| argc; argv |]
        | _ -> raise (Vm_error (entry ^ ": entry point must take () or (argc, argv)"))
      in
      classify_exit (Compiled.call t lf argv_vals))

(** Same entry protocol on the reference tree-walking engine. *)
let run_reference ?(entry = "main") ?(args = [ "prog" ]) t =
  t.on_reference <- true;
  classify_run t (fun () ->
      let f =
        match Hashtbl.find_opt t.prog.funcs entry with
        | Some f -> f
        | None -> undefined_entry entry
      in
      let argv_vals =
        match f.params with
        | [] -> []
        | [ _; _ ] ->
            let argc, argv = setup_argv t args in
            [ argc; argv ]
        | _ -> raise (Vm_error (entry ^ ": entry point must take () or (argc, argv)"))
      in
      classify_exit (exec_func t f argv_vals))

(** Run [main] (or a named entry point) to completion and classify,
    on the engine the tier mode selects: the production engine by
    default, the tree-walker under {!Tier_ref}. *)
let run ?(entry = "main") ?(args = [ "prog" ]) t =
  match !tier_mode_ref with
  | Tier_ref -> run_reference ~entry ~args t
  | Tier_compiled -> run_compiled ~entry ~args t
