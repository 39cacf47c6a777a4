(** Binned first-fit heap allocator over {!Mem}.

    The allocator reproduces the behaviours the dissertation's detection
    conditions (§2.5) and fault-model discussion (§3.4) rely on:

    - {b size-class rounding}: requests are rounded up to a minimum payload
      of 24 bytes and then to a 16-byte multiple, so a heap-array resize
      from 24 to 16 bytes may still receive enough memory and produce
      correct output despite a successful injection;
    - {b inline chunk headers}: 16 bytes immediately before each payload,
      so overflows corrupt neighbouring metadata and frees of corrupted or
      non-chunk pointers fail the magic check and crash (natural
      detection — "error checking in the heap allocator");
    - {b metadata poisoning of freed buffers}: the free-list link is
      written into the first 8 payload bytes on [free], so reads after
      free observe allocator metadata, as many real allocators behave;
    - {b LIFO reallocation}: a freed chunk is the first candidate for the
      next allocation of its size class, which is what pairs dangling
      pointers with fresh objects (and what rearrange-heap disrupts). *)

let header_size = 16
let magic = 0xA110CA7EL
let min_payload = 24

type stats = {
  mutable n_malloc : int;
  mutable n_free : int;
  mutable live_bytes : int;
  mutable peak_bytes : int;
}

type t = {
  mem : Mem.t;
  mutable wilderness : int64;  (** next unused heap address *)
  bins : (int, int64 list ref) Hashtbl.t;  (** size class -> free payloads *)
  chunk_sizes : (int64, int) Hashtbl.t;
      (** authoritative payload sizes (headers can be corrupted by faulty
          programs; the allocator's own bookkeeping survives, as a real
          allocator's out-of-band metadata would) *)
  free_set : (int64, unit) Hashtbl.t;
  stats : stats;
  tr : Dpmr_trace.Trace.t option;
      (** the domain's trace sink, captured at {!create}; chunk events are
          timestamped through the sink's clock (the VM's cost counter) *)
}

let create mem =
  {
    mem;
    wilderness = Mem.heap_base;
    bins = Hashtbl.create 64;
    chunk_sizes = Hashtbl.create 256;
    free_set = Hashtbl.create 256;
    stats = { n_malloc = 0; n_free = 0; live_bytes = 0; peak_bytes = 0 };
    tr = Dpmr_trace.Trace.current ();
  }

let round_size n =
  let n = max n min_payload in
  (n + 15) / 16 * 16

let bin t size =
  match Hashtbl.find_opt t.bins size with
  | Some l -> l
  | None ->
      let l = ref [] in
      Hashtbl.replace t.bins size l;
      l

let write_header t payload size ~free =
  let h = Int64.sub payload (Int64.of_int header_size) in
  Mem.write_int t.mem h 8 (Int64.of_int size);
  Mem.write_int t.mem (Int64.add h 8L) 4 magic;
  Mem.write_int t.mem (Int64.add h 12L) 4 (if free then 0L else 1L)

let header_ok t payload =
  let h = Int64.sub payload (Int64.of_int header_size) in
  Mem.is_mapped t.mem h
  && Mem.is_mapped t.mem (Int64.add h 8L)
  && Int64.equal (Mem.read_int t.mem (Int64.add h 8L) 4) magic

let account_alloc t size =
  t.stats.n_malloc <- t.stats.n_malloc + 1;
  t.stats.live_bytes <- t.stats.live_bytes + size;
  if t.stats.live_bytes > t.stats.peak_bytes then
    t.stats.peak_bytes <- t.stats.live_bytes

let[@inline] trace_malloc t payload ~requested ~granted =
  match t.tr with
  | Some s ->
      Dpmr_trace.Trace.emit_malloc s ~addr:payload ~requested ~granted
        ~live:t.stats.live_bytes
  | None -> ()

(** Allocate [n] bytes; returns the payload address. *)
let malloc t n =
  let size = round_size n in
  let b = bin t size in
  match !b with
  | payload :: rest ->
      b := rest;
      Hashtbl.remove t.free_set payload;
      write_header t payload size ~free:false;
      account_alloc t size;
      trace_malloc t payload ~requested:n ~granted:size;
      payload
  | [] ->
      let chunk = t.wilderness in
      let payload = Int64.add chunk (Int64.of_int header_size) in
      t.wilderness <- Int64.add payload (Int64.of_int size);
      Mem.map_range t.mem chunk (header_size + size) Mem.Fill_garbage;
      Hashtbl.replace t.chunk_sizes payload size;
      write_header t payload size ~free:false;
      account_alloc t size;
      trace_malloc t payload ~requested:n ~granted:size;
      payload

(** Free [payload].  Faults on non-chunk pointers (magic check) and on
    double frees of intact chunks; poisons the first 8 payload bytes with
    the free-list link. *)
let free t payload =
  (* before the sanity checks, so a crashing free is still on record *)
  (match t.tr with
  | Some s ->
      Dpmr_trace.Trace.emit_free s ~addr:payload ~live:t.stats.live_bytes
  | None -> ());
  if not (header_ok t payload) then raise (Mem.Fault (Mem.Invalid_free payload));
  if Hashtbl.mem t.free_set payload then
    raise (Mem.Fault (Mem.Double_free payload));
  match Hashtbl.find_opt t.chunk_sizes payload with
  | None ->
      (* Intact-looking header at an address we never allocated: an
         out-of-bounds free that happens to hit copied metadata.  Treat as
         invalid, like a hardened allocator would. *)
      raise (Mem.Fault (Mem.Invalid_free payload))
  | Some size ->
      let b = bin t size in
      (* poison: write the free-list head into the payload (metadata in
         freed buffers), then push *)
      let old_head = match !b with a :: _ -> a | [] -> 0L in
      Mem.write_int t.mem payload 8 old_head;
      write_header t payload size ~free:true;
      b := payload :: !b;
      Hashtbl.replace t.free_set payload ();
      t.stats.n_free <- t.stats.n_free + 1;
      t.stats.live_bytes <- t.stats.live_bytes - size

(** Usable payload size of an allocated chunk ([heapBufSize] in the
    zero-before-free transformation, Table 2.8). *)
let usable_size t payload =
  match Hashtbl.find_opt t.chunk_sizes payload with
  | Some s -> s
  | None -> raise (Mem.Fault (Mem.Invalid_free payload))

let is_heap_chunk t payload = Hashtbl.mem t.chunk_sizes payload
let stats t = t.stats

(** Live heap bytes, read straight off the mutable counter — the VM's
    per-load/store cache-pressure term calls this on its hottest path. *)
let[@inline] live_bytes t = t.stats.live_bytes

(** Total heap footprint: bytes between the heap base and the wilderness
    pointer (the working set the cache-pressure cost model taxes). *)
let footprint_bytes t = Int64.to_int (Int64.sub t.wilderness Mem.heap_base)
