(** The interpreter: executes an IR program against the simulated memory
    subsystem, charging the {!Cost} model, dispatching external
    functions, and classifying the run per {!Outcome}.

    Two engines share all VM state and agree bit-for-bit: the
    production engine ({!run}) lowers the program once
    ({!Lower}) and closure-compiles each function at its first call
    ({!Compile}), and the {b reference} tree-walking engine
    ({!run_reference}) is kept as the executable specification the
    differential tests compare against. *)

open Dpmr_ir
open Dpmr_memsim

type value = Lower.value = I of int64 | F of float
(** Runtime values: integers and pointers share [I]. *)

exception Exit_program of int

(** Raised by the [__dpmr_detect] intrinsic and the wrapper checks. *)
exception Dpmr_detected of string

exception Timeout_exceeded
exception Vm_error of string

(** Raised out of {!run} by a cooperative-cancellation hook (see
    {!set_poll_hook}); never caught by the run classifier, so it reaches
    the supervisor that installed the hook. *)
exception Cancelled of string

type t = {
  prog : Prog.t;
  lprog : Lower.prog;  (** pre-resolved form {!run} compiles *)
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
  mutable budget : int;
  rng : Rng.t;
  externs : (string, extern) Hashtbl.t;
  extern_slots : extern option array;
      (** per-VM resolution of the {!Lower.Lextern} call slots *)
  mutable fi_first_cost : int option;
  mutable call_depth : int;
  mutable on_reference : bool;  (** engine selector for {!call_function} *)
  trace : Dpmr_trace.Trace.t option;
      (** the domain's trace sink ({!Dpmr_trace.Trace.current}), captured
          once at {!create}; [None] — the common case — costs one pointer
          test per would-be event *)
}

and extern = t -> value list -> value option
(** External functions receive the VM and the evaluated arguments. *)

(** Create a VM.  [lowered], when supplied, must be the result of
    [Lower.lower_prog prog] for this very program — it lets callers that
    run the same program many times lower it once; a mismatched or absent
    [lowered] triggers a fresh lowering. *)
val create : ?seed:int64 -> ?budget:int64 -> ?lowered:Lower.prog -> Prog.t -> t

(** Install (or clear, with [None]) this domain's step-poll hook.  Both
    engines call it once per basic block, at the budget check; the
    hook cancels the run by raising {!Cancelled}.  Domain-local: a hook
    installed by a worker never affects VMs on other domains. *)
val set_poll_hook : (unit -> unit) option -> unit

val register_extern : t -> string -> extern -> unit

val add_cost : t -> int -> unit
val as_int : value -> int64
val as_float : value -> float
val truncate_to : Types.width -> int64 -> int64
val sign_extend : Types.width -> int64 -> int64

(** Address of a function (assigning one on first use). *)
val fun_address : t -> string -> int64

val global_address : t -> string -> int64

(** Call a defined function or a registered extern by name, on whichever
    engine the current run selected. *)
val call_function : t -> string -> value list -> value option

(** Run the entry point to completion and classify the result.  [main]
    may take [()] or [(argc, argv)]; in the latter case [args] is
    materialized as C strings in simulated memory.  Runs on the
    production engine unless {!set_tier_mode} pinned the reference. *)
val run : ?entry:string -> ?args:string list -> t -> Outcome.run

(** Same protocol on the reference tree-walking engine (the original
    interpreter, kept as the executable specification). *)
val run_reference : ?entry:string -> ?args:string list -> t -> Outcome.run

(** {1 Engine selection} *)

type tier_mode =
  | Tier_compiled  (** the production engine (the default) *)
  | Tier_ref  (** force the reference tree-walker in {!run} *)

(** Set the process-global engine for {!run}.  Set it before spawning
    worker domains. *)
val set_tier_mode : tier_mode -> unit

val tier_mode : unit -> tier_mode

(** Cumulative (process-wide) compiled-engine telemetry: (functions
    compiled, deoptimizations).  Compiled code never deoptimizes, so
    the second field is always 0; it is kept only for the telemetry
    schema that reports it. *)
val tier_stats : unit -> int * int
