(* Spans for the traced run, recorded around the benchmark's own calls
   into the libraries. Each span has a name, start, end and parent, and
   carries the id of the op it belongs to. Spans stay in memory until the
   run ends; with tracing off [with_span] only calls its argument. *)

type t = {
  id : int;
  parent : int;  (** -1 for a root span *)
  op : int;
  name : string;
  start_ns : int;
  stop_ns : int;
}

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let enabled = ref false
let recorded : t list ref = ref []
let open_ids : int list ref = ref []
let next_id = ref 0
let current_op = ref (-1)

let with_span name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !open_ids with p :: _ -> p | [] -> -1 in
    open_ids := id :: !open_ids;
    let start_ns = now_ns () in
    let close () =
      let stop_ns = now_ns () in
      open_ids := List.tl !open_ids;
      recorded :=
        { id; parent; op = !current_op; name; start_ns; stop_ns } :: !recorded
    in
    match f () with
    | v ->
        close ();
        v
    | exception e ->
        close ();
        raise e
  end

(* Runs [f] as op [op]: every span opened inside carries that id. *)
let in_op op f =
  let saved = !current_op in
  current_op := op;
  Fun.protect ~finally:(fun () -> current_op := saved) f

let all () = List.rev !recorded

(* Self time of every span: its duration minus the part of it that its
   children cover. Children never overlap (the run is single-threaded and
   spans nest), so the covered part is the sum of their durations. *)
let self_times spans =
  let child_ns = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child_ns s.parent
          ((s.stop_ns - s.start_ns)
          + Option.value ~default:0 (Hashtbl.find_opt child_ns s.parent)))
    spans;
  List.map
    (fun s ->
      ( s,
        s.stop_ns - s.start_ns
        - Option.value ~default:0 (Hashtbl.find_opt child_ns s.id) ))
    spans
