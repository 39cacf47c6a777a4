(** Lightweight well-formedness checker for IR programs.

    Catches the construction mistakes that would otherwise surface as
    confusing interpreter traps: ill-typed register assignments, loads and
    stores of non-scalar types, branches to missing labels, calls with
    arity mismatches, and use of undeclared functions.  All workloads and
    all transformed programs are verified in the test suite. *)

open Types
open Inst

exception Ill_formed of string

let fail fmt = Fmt.kstr (fun s -> raise (Ill_formed s)) fmt

let check_scalar ctx t =
  if not (is_scalar t) then
    fail "%s: type %a is not a scalar (registers hold scalars only)" ctx Types.pp t

(* A type whose size must be known: every aggregate it holds by value
   must be named in the type environment (pointers may stay opaque). *)
let rec check_defined (p : Prog.t) ctx = function
  | Struct n | Union n ->
      if not (Tenv.is_defined p.tenv n) then fail "%s: undefined type %%%s" ctx n
  | Arr (e, _) -> check_defined p ctx e
  | Int _ | Float | Void | Ptr _ | Fun _ -> ()

let check_func (p : Prog.t) (f : Func.t) =
  let ctx_of b inst = Fmt.str "%s/%s: %a" f.name b (Printer.pp_inst f) inst in
  (* an operand naming an undefined global or function is ill-formed,
     not a lookup failure *)
  let oty o =
    try Prog.operand_ty p f o with Invalid_argument msg -> fail "%s: %s" f.name msg
  in
  let check_ptr ctx o =
    match oty o with
    | Ptr _ -> ()
    | t -> fail "%s: operand has non-pointer type %a" ctx Types.pp t
  in
  let check_int ctx o =
    match oty o with
    | Int _ -> ()
    | t -> fail "%s: operand has non-integer type %a" ctx Types.pp t
  in
  let labels = List.map (fun (b : Func.block) -> b.label) f.blocks in
  let check_label ctx l =
    if not (List.mem l labels) then fail "%s: branch to missing label %S" ctx l
  in
  if f.blocks = [] then fail "%s: no blocks" f.name;
  List.iter
    (fun (b : Func.block) ->
      List.iter
        (fun inst ->
          let ctx = ctx_of b.label inst in
          (match def_of inst with
          | Some r when not (Hashtbl.mem f.reg_tys r) ->
              fail "%s: destination register %d has no declared type" ctx r
          | _ -> ());
          match inst with
          | Malloc (r, t, n) | Alloca (r, t, n) ->
              check_int ctx n;
              check_defined p ctx t;
              ignore (Layout.size_of p.tenv t);
              if Func.reg_ty f r <> Ptr t then
                fail "%s: allocation result type mismatch" ctx
          | Free q -> check_ptr ctx q
          | Load (r, t, q) ->
              check_scalar ctx t;
              check_ptr ctx q;
              if Func.reg_ty f r <> t then fail "%s: load result type mismatch" ctx
          | Store (t, v, q) ->
              check_scalar ctx t;
              check_ptr ctx q;
              let vt = oty v in
              let compatible =
                match (t, vt) with
                | Ptr _, Ptr _ -> true (* pointer stores may be imprecisely typed *)
                | a, b -> a = b
              in
              if not compatible then
                fail "%s: stored value type %a does not match %a" ctx Types.pp vt
                  Types.pp t
          | Gep_field (r, s, q, i) -> (
              check_ptr ctx q;
              if not (Tenv.is_defined p.tenv s) then
                fail "%s: gep_field on undefined struct %%%s" ctx s;
              let fields = Tenv.fields p.tenv s in
              if i < 0 || i >= List.length fields then
                fail "%s: field index %d out of range for %%%s" ctx i s;
              match Func.reg_ty f r with
              | Ptr _ -> ()
              | t -> fail "%s: gep_field result type %a" ctx Types.pp t)
          | Gep_index (r, e, q, i) -> (
              check_defined p ctx e;
              check_ptr ctx q;
              check_int ctx i;
              match Func.reg_ty f r with
              | Ptr e' when e' = e -> ()
              | t -> fail "%s: gep_index result type %a" ctx Types.pp t)
          | Bitcast (r, t, q) -> (
              check_ptr ctx q;
              match (t, Func.reg_ty f r) with
              | Ptr _, rt when rt = t -> ()
              | _ -> fail "%s: bitcast target must be the result pointer type" ctx)
          | Ptr_to_int (r, q) ->
              check_ptr ctx q;
              if Func.reg_ty f r <> i64 then fail "%s: ptrtoint result must be i64" ctx
          | Int_to_ptr (r, t, v) -> (
              check_int ctx v;
              match (t, Func.reg_ty f r) with
              | Ptr _, rt when rt = t -> ()
              | _ -> fail "%s: inttoptr result type mismatch" ctx)
          | Binop (r, _, w, a, bo) ->
              check_int ctx a;
              check_int ctx bo;
              if Func.reg_ty f r <> Int w then fail "%s: binop result width" ctx
          | Fbinop (r, _, a, bo) ->
              if oty a <> Float || oty bo <> Float then fail "%s: fbinop operands" ctx;
              if Func.reg_ty f r <> Float then fail "%s: fbinop result" ctx
          | Icmp (r, _, _, a, bo) ->
              (match (oty a, oty bo) with
              | Int _, Int _ | Ptr _, Ptr _ -> ()
              | _ -> fail "%s: icmp operands must both be ints or pointers" ctx);
              if Func.reg_ty f r <> i8 then fail "%s: icmp result must be i8" ctx
          | Fcmp (r, _, a, bo) ->
              if oty a <> Float || oty bo <> Float then fail "%s: fcmp operands" ctx;
              if Func.reg_ty f r <> i8 then fail "%s: fcmp result must be i8" ctx
          | Int_cast (r, w, _, v) ->
              check_int ctx v;
              if Func.reg_ty f r <> Int w then fail "%s: int_cast result width" ctx
          | F_to_i (r, w, v) ->
              if oty v <> Float then fail "%s: fptosi operand" ctx;
              if Func.reg_ty f r <> Int w then fail "%s: fptosi result" ctx
          | I_to_f (r, _, v) ->
              check_int ctx v;
              if Func.reg_ty f r <> Float then fail "%s: sitofp result" ctx
          | Select (r, t, c, a, bo) ->
              check_int ctx c;
              if oty a <> t || oty bo <> t then fail "%s: select arm types" ctx;
              if Func.reg_ty f r <> t then fail "%s: select result" ctx
          | Call (r, callee, args) -> (
              let ft =
                match callee with
                | Direct n -> (
                    try Prog.fun_sig p n
                    with Invalid_argument _ -> fail "%s: unknown callee %S" ctx n)
                | Indirect o -> (
                    match oty o with
                    | Ptr (Fun ft) -> ft
                    | t -> fail "%s: indirect callee type %a" ctx Types.pp t)
              in
              let nfixed = List.length ft.params in
              if List.length args < nfixed then fail "%s: too few arguments" ctx
              else if (not ft.vararg) && List.length args > nfixed then
                fail "%s: too many arguments" ctx;
              List.iteri
                (fun i pt ->
                  let at = oty (List.nth args i) in
                  let ok =
                    match (pt, at) with Ptr _, Ptr _ -> true | a, b -> a = b
                  in
                  if not ok then
                    fail "%s: argument %d has type %a, expected %a" ctx i Types.pp
                      at Types.pp pt)
                ft.params;
              match (r, ft.ret) with
              | None, _ -> ()
              | Some _, Void -> fail "%s: void call with result register" ctx
              | Some r, t ->
                  let ok =
                    match (t, Func.reg_ty f r) with
                    | Ptr _, Ptr _ -> true
                    | a, b -> a = b
                  in
                  if not ok then fail "%s: call result type mismatch" ctx))
        b.insts;
      match b.term with
      | Br l -> check_label b.label l
      | Cbr (c, l1, l2) ->
          check_int (Fmt.str "%s/%s: cbr" f.name b.label) c;
          check_label b.label l1;
          check_label b.label l2
      | Ret None ->
          if f.ret <> Void then fail "%s: ret void in non-void function" f.name
      | Ret (Some o) ->
          let ok =
            match (f.ret, oty o) with Ptr _, Ptr _ -> true | a, b -> a = b
          in
          if not ok then fail "%s: return type mismatch" f.name
      | Unreachable -> ())
    f.blocks

let check_prog (p : Prog.t) =
  Tenv.iter p.tenv (fun name body ->
      List.iter (check_defined p ("type %" ^ name)) body.fields);
  Prog.iter_globals p (fun g -> check_defined p ("global @" ^ g.Prog.gname) g.Prog.gty);
  Prog.iter_funcs p (fun f -> check_func p f)
