(** Fault-tolerant job supervision for campaign runs: per-attempt
    wall-clock deadlines (cooperative cancellation through the VM's
    step-poll hook), retry with exponential backoff and deterministic
    jitter for transient failures, and quarantine for deterministic
    ones.  A failed job surfaces as an explicit [Error failure] in its
    own slot — never a batch abort. *)

type reason =
  | Deadline  (** wall-clock ceiling hit; cancelled mid-run *)
  | Transient  (** retriable failures, retries exhausted *)
  | Fatal  (** deterministic failure; no retry *)

val reason_name : reason -> string

type failure = {
  fkey : string;
  freason : reason;
  fattempts : int;  (** attempts actually executed *)
  ferror : string;  (** rendering of the last exception *)
}

val failure_to_string : failure -> string

type policy = {
  deadline : float option;  (** per-attempt wall-clock ceiling, seconds *)
  max_retries : int;  (** extra attempts granted to transient failures *)
  backoff : float;  (** base backoff sleep, seconds *)
  backoff_max : float;
}

val default_policy : policy
(** 300 s deadline, 3 retries, 5 ms base backoff capped at 250 ms.  The
    deadline catches wedged jobs, not slow ones — legitimate work is
    already bounded by the simulated-cost budget. *)

type t
(** Shared supervision state: policy, quarantine table, counters.
    Thread-safe; one instance serves all worker domains of an engine. *)

val create : ?policy:policy -> unit -> t
val policy : t -> policy

val retries : t -> int
(** Attempts beyond each job's first, across all jobs. *)

val failures : t -> int
(** Submissions answered with [Error] (including quarantine hits). *)

val quarantined : t -> int
(** Distinct keys currently quarantined. *)

val register_transient : (exn -> bool) -> unit
(** Extend the transient (retriable) exception class.  Chaos injections
    are always transient; {!Vm.Cancelled} is always a deadline;
    everything else defaults to fatal. *)

val classify_exn : exn -> reason

val run : t -> key:string -> (unit -> 'a) -> ('a, failure) result
(** Run one job under supervision.  A quarantined [key] answers
    immediately with its recorded failure (the job does not run).
    Otherwise attempts execute under the policy deadline; transient
    failures retry with backoff, deadline and fatal failures quarantine
    the key at once, and exhausted transients quarantine it too. *)
