(* Shared helpers for the test suites. *)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* A shadow-memory sink that boxes each edge into a [Dependence.t], for
   tests that inspect whole records. *)
let boxing_sink (f : Shadow.Dependence.t -> unit) : Shadow.Shadow_memory.sink =
 fun ~kind ~head_pc ~head_time ~head_node ~tail_pc ~tail_time ~tail_node ~addr ->
  f
    {
      Shadow.Dependence.kind;
      head = { Shadow.Dependence.pc = head_pc; time = head_time; node = head_node };
      tail = { Shadow.Dependence.pc = tail_pc; time = tail_time; node = tail_node };
      addr;
    }
