type t = int

let none = -1

(* Four words per node at [4 * (h land chunk_mask)] of chunk
   [h lsr chunk_bits]: +0 [label lsl 1 lor is_func], +1 tenter,
   +2 texit, +3 parent. Chunks rather than one growing array: a
   1M-node store in one block is 32 MiB, above glibc's dynamic mmap
   threshold, so every run would map and page-fault it afresh; 512 KB
   chunks are reused from the malloc heap. Chunk 0 starts at 64 nodes
   and doubles up to the full size, so a short run's store stays small;
   later chunks are made at full size. *)
let chunk_bits = 14
let chunk_nodes = 1 lsl chunk_bits
let chunk_mask = chunk_nodes - 1
let chunk_words = chunk_nodes lsl 2

type store = { mutable chunks : int array array; mutable count : int }

let store () = { chunks = [||]; count = 0 }

let alloc s =
  let h = s.count in
  let k = h lsr chunk_bits and b = (h land chunk_mask) lsl 2 in
  if k = Array.length s.chunks then begin
    let chunks = Array.make (max 4 (2 * k)) [||] in
    Array.blit s.chunks 0 chunks 0 k;
    s.chunks <- chunks
  end;
  if b = Array.length s.chunks.(k) then begin
    let c = Array.make (if k = 0 then max 256 (2 * b) else chunk_words) 0 in
    Array.blit s.chunks.(k) 0 c 0 b;
    s.chunks.(k) <- c
  end;
  let c = s.chunks.(k) in
  c.(b) <- -1 lsl 1;
  c.(b + 3) <- none;
  s.count <- h + 1;
  h

let words s =
  Array.fold_left
    (fun n c -> n + Array.length c)
    (Array.length s.chunks) s.chunks

(* Both lookups are bounds-checked, so a stray handle (including
   [none]) raises instead of reading outside the store. *)
let[@inline] get s h k =
  s.chunks.(h lsr chunk_bits).(((h land chunk_mask) lsl 2) + k)

let[@inline] label s h = get s h 0 asr 1
let[@inline] is_func s h = get s h 0 land 1 = 1
let[@inline] tenter s h = get s h 1
let[@inline] texit s h = get s h 2
let[@inline] parent s h = get s h 3

let[@inline] set_texit s h v =
  s.chunks.(h lsr chunk_bits).(((h land chunk_mask) lsl 2) + 2) <- v

let[@inline] start s h ~label ~is_func ~tenter ~parent =
  let c = s.chunks.(h lsr chunk_bits) and b = (h land chunk_mask) lsl 2 in
  c.(b) <- (label lsl 1) lor Bool.to_int is_func;
  c.(b + 1) <- tenter;
  c.(b + 2) <- 0;
  c.(b + 3) <- parent

let[@inline] duration s h = texit s h - tenter s h

let[@inline] covers s h th =
  h >= 0
  &&
  let c = s.chunks.(h lsr chunk_bits) and b = (h land chunk_mask) lsl 2 in
  c.(b + 1) <= th && th < c.(b + 2)
