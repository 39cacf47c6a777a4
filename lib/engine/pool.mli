(** Fixed-size resident domain worker pool with deterministic result
    ordering.

    A pool's worker domains start with its first batch and park between
    batches until {!shutdown}, so per-domain warmup (DLS-cached
    experiment contexts, lowered programs) is paid once per pool.  A
    pool of size 1 spawns no domain: each batch runs on the domain that
    submitted it, so batches submitted from N domains at once (the
    daemon's N connections) run N at a time. *)

val default_size : unit -> int
(** [Domain.recommended_domain_count ()]. *)

type t
(** [size] worker domains pulling from one queue. *)

val create : ?size:int -> unit -> t
(** A pool of [size] workers (default {!default_size}, minimum 1).
    Spawns nothing: the workers start with the first batch. *)

val size : t -> int

val shutdown : t -> unit
(** Stop the workers once the queue drains and join their domains.
    Idempotent.  A later batch on a pool of size > 1 raises
    [Invalid_argument]. *)

val map_results :
  t ->
  ?progress:(done_:int -> total:int -> unit) ->
  ('a -> 'b) ->
  'a list ->
  ('b, exn * Printexc.raw_backtrace) result list
(** [map_results t f xs] applies [f] to every element on the pool's
    workers; the i-th slot holds the i-th element's result regardless of
    completion order.  A raising job yields [Error (exn, backtrace)] in
    its own slot and never discards the other slots — the property the
    campaign supervisor builds on.  [f] must not share mutable state
    across calls — in particular it must not touch a [Prog.t] built
    outside itself (programs carry internal caches).  Thread-safe:
    batches submitted concurrently from several domains interleave in
    the queue, and each caller blocks only on its own completion count.
    [progress] is called after each completion, never concurrently. *)

val map :
  t ->
  ?progress:(done_:int -> total:int -> unit) ->
  ('a -> 'b) ->
  'a list ->
  'b list
(** {!map_results}, then the first error in input order is re-raised on
    the calling domain with the worker's backtrace preserved
    ([Printexc.raise_with_backtrace]). *)
