(* Tests for the memory simulator and heap allocator — the substrate whose
   behaviours the detection conditions (§2.5) depend on. *)

open Dpmr_memsim

let test_rw_roundtrip () =
  let m = Mem.create () in
  Mem.map_range m 0x10000L 4096 Mem.Fill_zero;
  Mem.write_int m 0x10000L 8 0x1122334455667788L;
  Alcotest.(check int64) "u64" 0x1122334455667788L (Mem.read_int m 0x10000L 8);
  Alcotest.(check int64) "u32 low" 0x55667788L (Mem.read_int m 0x10000L 4);
  Alcotest.(check int) "u8" 0x88 (Mem.read_u8 m 0x10000L);
  Mem.write_f64 m 0x10100L 3.25;
  Alcotest.(check (float 0.0)) "f64" 3.25 (Mem.read_f64 m 0x10100L)

let test_unmapped_faults () =
  let m = Mem.create () in
  Alcotest.(check bool) "fault" true
    (try
       ignore (Mem.read_u8 m 0x123L);
       false
     with Mem.Fault (Mem.Unmapped _) -> true)

let test_straddling_access () =
  let m = Mem.create () in
  Mem.map_range m 0x10000L 8192 Mem.Fill_zero;
  let addr = 0x10FFCL (* 4 bytes before a page boundary *) in
  Mem.write_int m addr 8 0xAABBCCDDEEFF0011L;
  Alcotest.(check int64) "straddle" 0xAABBCCDDEEFF0011L (Mem.read_int m addr 8)

let test_garbage_is_deterministic () =
  let m1 = Mem.create ~seed:7L () and m2 = Mem.create ~seed:7L () in
  Mem.map_range m1 0x50000L 64 Mem.Fill_garbage;
  Mem.map_range m2 0x50000L 64 Mem.Fill_garbage;
  Alcotest.(check int64) "same garbage" (Mem.read_int m1 0x50000L 8)
    (Mem.read_int m2 0x50000L 8);
  let m3 = Mem.create ~seed:8L () in
  Mem.map_range m3 0x50000L 64 Mem.Fill_garbage;
  Alcotest.(check bool) "different seed, different garbage" true
    (not (Int64.equal (Mem.read_int m1 0x50000L 8) (Mem.read_int m3 0x50000L 8)))

(* Garbage bytes are part of every run's behaviour (uninitialized reads
   feed detections and crashes), so their exact contents are pinned: any
   rewrite of the page fill must reproduce these digests. *)
let test_garbage_bytes_pinned () =
  List.iter
    (fun (seed, addr, md5) ->
      let m = Mem.create ~seed () in
      Mem.map_range m addr Mem.page_size Mem.Fill_garbage;
      Alcotest.(check string)
        (Printf.sprintf "seed %Ld page 0x%Lx" seed addr)
        md5
        (Digest.to_hex (Digest.bytes (Mem.read_bytes m addr Mem.page_size))))
    [
      (1L, 0x10000L, "e995cb7ebbf4d451b6d6e0189f01b2da");
      (42L, 0x4000_0000L, "489fa7dc3732da026ad06716562e48d1");
      (7L, 0x8000_3000L, "e674bd8e89665458babac7c703d7afb6");
    ]

(* ---- allocator ---- *)

let mk_alloc () =
  let m = Mem.create () in
  (m, Allocator.create m)

let test_malloc_rounds_up () =
  let _, a = mk_alloc () in
  let p = Allocator.malloc a 16 in
  (* min payload is 24, rounded to 32: a heap-array resize 24 -> 16 still
     receives enough memory (the §3.4 "overallocation" effect) *)
  Alcotest.(check int) "rounded" 32 (Allocator.usable_size a p)

let test_free_reuse_lifo () =
  let _, a = mk_alloc () in
  let p = Allocator.malloc a 100 in
  Allocator.free a p;
  let q = Allocator.malloc a 100 in
  Alcotest.(check int64) "LIFO reuse" p q

let test_free_poisons_payload () =
  let m, a = mk_alloc () in
  let p1 = Allocator.malloc a 48 in
  let p2 = Allocator.malloc a 48 in
  Allocator.free a p1;
  Allocator.free a p2;
  (* p2's payload now holds the free-list link to p1 (old bin head) *)
  Alcotest.(check int64) "metadata in freed buffer" p1 (Mem.read_int m p2 8)

let test_invalid_free_faults () =
  let _, a = mk_alloc () in
  Alcotest.(check bool) "invalid free" true
    (try
       Allocator.free a 0x4141_4141L;
       false
     with Mem.Fault _ -> true)

let test_double_free_faults () =
  let _, a = mk_alloc () in
  let p = Allocator.malloc a 64 in
  Allocator.free a p;
  Alcotest.(check bool) "double free" true
    (try
       Allocator.free a p;
       false
     with Mem.Fault (Mem.Double_free _) -> true)

let test_interior_free_faults () =
  let _, a = mk_alloc () in
  let p = Allocator.malloc a 64 in
  Alcotest.(check bool) "interior pointer free" true
    (try
       Allocator.free a (Int64.add p 8L);
       false
     with Mem.Fault (Mem.Invalid_free _) -> true)

let test_overflow_corrupts_next_header () =
  let m, a = mk_alloc () in
  let p = Allocator.malloc a 32 in
  let q = Allocator.malloc a 32 in
  (* q's chunk follows p's: write past p's end, clobber q's header magic *)
  for i = 32 to 52 do
    Mem.write_u8 m (Int64.add p (Int64.of_int i)) 0x41
  done;
  Alcotest.(check bool) "free of corrupted chunk faults" true
    (try
       Allocator.free a q;
       false
     with Mem.Fault (Mem.Invalid_free _) -> true)

let test_stats () =
  let _, a = mk_alloc () in
  let p = Allocator.malloc a 100 in
  let _q = Allocator.malloc a 200 in
  Allocator.free a p;
  let s = Allocator.stats a in
  Alcotest.(check int) "mallocs" 2 s.Allocator.n_malloc;
  Alcotest.(check int) "frees" 1 s.Allocator.n_free;
  Alcotest.(check bool) "peak >= live" true (s.Allocator.peak_bytes >= s.Allocator.live_bytes)

(* qcheck: allocator invariants *)

let prop_malloc_disjoint =
  QCheck.Test.make ~name:"live chunks are pairwise disjoint" ~count:50
    QCheck.(list_of_size Gen.(int_range 1 40) (int_range 1 512))
    (fun sizes ->
      let _, a = mk_alloc () in
      let chunks = List.map (fun n -> (Allocator.malloc a n, n)) sizes in
      let ranges =
        List.map (fun (p, n) -> (p, Int64.add p (Int64.of_int (Allocator.round_size n)))) chunks
      in
      List.for_all
        (fun (s1, e1) ->
          List.for_all
            (fun (s2, e2) ->
              Int64.equal s1 s2 || Int64.compare e1 s2 <= 0 || Int64.compare e2 s1 <= 0)
            ranges)
        ranges)

(* qcheck: scalar access fidelity.  [read_int]/[write_int] have a
   width-dispatched single-page fast path and a byte-at-a-time straddle
   path; both must agree with the byte-level model for every width and
   offset, including offsets that cross the page boundary. *)

let prop_scalar_vs_bytes =
  QCheck.Test.make ~name:"read_int/write_int match the byte-level model" ~count:200
    QCheck.(
      triple (int_range 0 8192) (oneofl [ 1; 2; 4; 8 ])
        (map Int64.of_int (int_range 0 max_int)))
    (fun (off, len, v) ->
      let m = Mem.create () in
      let base = Mem.heap_base in
      Mem.map_range m base 16384 Mem.Fill_zero;
      let addr = Int64.add base (Int64.of_int off) in
      Mem.write_int m addr len v;
      (* the write is little-endian: byte i of the value at addr+i *)
      let bytes_agree =
        List.for_all
          (fun i ->
            Mem.read_u8 m (Int64.add addr (Int64.of_int i))
            = Int64.to_int
                (Int64.logand (Int64.shift_right_logical v (8 * i)) 0xFFL))
          (List.init len Fun.id)
      in
      (* and reading it back truncates to the width *)
      let mask =
        if len = 8 then -1L else Int64.sub (Int64.shift_left 1L (8 * len)) 1L
      in
      bytes_agree && Int64.equal (Mem.read_int m addr len) (Int64.logand v mask))

let prop_two_page_interleave =
  (* alternating writes to two distant pages thrash the one-entry page
     cache; every value must still read back through the cache misses *)
  QCheck.Test.make ~name:"interleaved two-page accesses survive the page cache"
    ~count:100
    QCheck.(list_of_size Gen.(int_range 1 60) (pair (int_range 0 500) bool))
    (fun writes ->
      let m = Mem.create () in
      let near = Mem.heap_base in
      let far = Int64.add Mem.heap_base 0x10_0000L in
      Mem.map_range m near 4096 Mem.Fill_zero;
      Mem.map_range m far 4096 Mem.Fill_zero;
      let expect = Hashtbl.create 16 in
      List.iteri
        (fun i (slot, which) ->
          let addr =
            Int64.add (if which then near else far) (Int64.of_int (slot * 8))
          in
          Mem.write_int m addr 8 (Int64.of_int i);
          Hashtbl.replace expect addr (Int64.of_int i))
        writes;
      Hashtbl.fold
        (fun addr v ok -> ok && Int64.equal (Mem.read_int m addr 8) v)
        expect true)

let prop_free_visible_through_cache =
  (* free poisons the chunk payload by writing through the same memory;
     a read that already cached the page must see the poison, not a
     stale snapshot *)
  QCheck.Test.make ~name:"free's poison is visible after a cached access" ~count:100
    QCheck.(int_range 8 2048)
    (fun n ->
      let m, a = mk_alloc () in
      let p = Allocator.malloc a n in
      Mem.write_int m p 8 0x1122334455667788L;
      let before = Mem.read_int m p 8 in
      Allocator.free a p;
      let after = Mem.read_int m p 8 in
      Int64.equal before 0x1122334455667788L && not (Int64.equal after before))

let prop_free_then_malloc_same_class =
  QCheck.Test.make ~name:"free then same-size malloc reuses memory" ~count:50
    QCheck.(int_range 1 1024)
    (fun n ->
      let _, a = mk_alloc () in
      let p = Allocator.malloc a n in
      Allocator.free a p;
      Int64.equal p (Allocator.malloc a n))

let suites =
  [
    ( "memsim.mem",
      [
        Alcotest.test_case "read/write roundtrip" `Quick test_rw_roundtrip;
        Alcotest.test_case "unmapped access faults" `Quick test_unmapped_faults;
        Alcotest.test_case "page-straddling access" `Quick test_straddling_access;
        Alcotest.test_case "deterministic garbage" `Quick test_garbage_is_deterministic;
        Alcotest.test_case "garbage bytes pinned" `Quick test_garbage_bytes_pinned;
      ]
      @ List.map QCheck_alcotest.to_alcotest
          [ prop_scalar_vs_bytes; prop_two_page_interleave ] );
    ( "memsim.allocator",
      [
        Alcotest.test_case "size-class rounding" `Quick test_malloc_rounds_up;
        Alcotest.test_case "LIFO reuse" `Quick test_free_reuse_lifo;
        Alcotest.test_case "free poisons payload" `Quick test_free_poisons_payload;
        Alcotest.test_case "invalid free faults" `Quick test_invalid_free_faults;
        Alcotest.test_case "double free faults" `Quick test_double_free_faults;
        Alcotest.test_case "interior free faults" `Quick test_interior_free_faults;
        Alcotest.test_case "overflow corrupts next header" `Quick test_overflow_corrupts_next_header;
        Alcotest.test_case "stats" `Quick test_stats;
      ]
      @ List.map QCheck_alcotest.to_alcotest
          [
            prop_malloc_disjoint;
            prop_free_visible_through_cache;
            prop_free_then_malloc_same_class;
          ] );
  ]
