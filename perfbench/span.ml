(* In-memory span recorder for the benchmark's traced runs.

   A span is one timed call from the benchmark driver into a layer of
   the simulator: a name, the request it belongs to, the span that
   enclosed it, and monotonic start/stop times in nanoseconds.  Spans
   are kept in a growable array and only read once the run is over.
   With recording off, [record] is a single branch around the call. *)

type t = {
  name : string;
  request : int;  (** spans of one request share this id *)
  parent : int;  (** index of the enclosing span, or -1 *)
  start_ns : int;
  mutable stop_ns : int;
}

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let on = ref false
let buf = ref [||]
let len = ref 0
let current = ref (-1)
let request = ref 0
let set_request id = request := id

let push s =
  if !len = Array.length !buf then begin
    let grown = Array.make (max 1024 (2 * !len)) s in
    Array.blit !buf 0 grown 0 !len;
    buf := grown
  end;
  !buf.(!len) <- s;
  incr len

let record name f =
  if not !on then f ()
  else begin
    let idx = !len and parent = !current in
    push { name; request = !request; parent; start_ns = now_ns (); stop_ns = 0 };
    current := idx;
    let finish () =
      !buf.(idx).stop_ns <- now_ns ();
      current := parent
    in
    match f () with
    | v ->
      finish ();
      v
    | exception e ->
      finish ();
      raise e
  end

let recorded () = Array.sub !buf 0 !len
let duration s = float_of_int (s.stop_ns - s.start_ns) *. 1e-9

(* Per-name aggregate: call count, total and self seconds (self = the
   span's duration minus its direct children's), and per-call p50/p99. *)
type summary = {
  s_name : string;
  count : int;
  total_s : float;
  self_s : float;
  p50_s : float;
  p99_s : float;
}

let summarize spans =
  let child_time = Array.make (Array.length spans) 0. in
  Array.iter
    (fun s ->
      if s.parent >= 0 then
        child_time.(s.parent) <- child_time.(s.parent) +. duration s)
    spans;
  let by_name = Hashtbl.create 16 in
  Array.iteri
    (fun i s ->
      let durs, self =
        Option.value (Hashtbl.find_opt by_name s.name) ~default:([], 0.)
      in
      Hashtbl.replace by_name s.name
        (duration s :: durs, self +. duration s -. child_time.(i)))
    spans;
  Hashtbl.fold
    (fun name (durs, self) acc ->
      { s_name = name;
        count = List.length durs;
        total_s = List.fold_left ( +. ) 0. durs;
        self_s = self;
        p50_s = Dbgp_obs.Snapshot.percentile durs 0.5;
        p99_s = Dbgp_obs.Snapshot.percentile durs 0.99 }
      :: acc)
    by_name []
  |> List.sort (fun a b -> compare a.s_name b.s_name)
