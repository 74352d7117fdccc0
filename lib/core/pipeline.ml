open Dbgp_types
module Metrics = Dbgp_obs.Metrics

(* The dirty set is a {!Prefix.Tbl}: {!mark} runs once per delivered update
   and must not pay a functional-set rebuild; {!drain} folds it into an
   array and sorts that with {!Prefix.sort} (linear in a large batch), so
   processing order stays ascending and deterministic. *)
type t = {
  dirty : unit Prefix.Tbl.t;
  c_marks : Metrics.counter;
  c_saved : Metrics.counter;
  c_drains : Metrics.counter;
}

let create obs =
  { dirty = Prefix.Tbl.create 0;
    c_marks = Metrics.counter obs "pipeline.dirty_marks";
    c_saved = Metrics.counter obs "pipeline.runs_saved";
    c_drains = Metrics.counter obs "pipeline.drains" }

(* One probe: a replace that leaves the size unchanged found the mark
   already queued. *)
let mark t prefix =
  Metrics.incr t.c_marks;
  let n = Prefix.Tbl.length t.dirty in
  Prefix.Tbl.replace t.dirty prefix ();
  if Prefix.Tbl.length t.dirty = n then
    (* Coalesced: this update will share the prefix's next decision run
       with the mark already queued — one run saved. *)
    Metrics.incr t.c_saved

let pending t = Prefix.Tbl.length t.dirty

let drain t ~f =
  match Prefix.Tbl.length t.dirty with
  | 0 -> []
  | 1 ->
    (* A lone mark (one origination, one single-prefix update) needs no
       batch array and no sort. *)
    Metrics.incr t.c_drains;
    let p = Prefix.Tbl.fold (fun p () _ -> p) t.dirty Prefix.default in
    Prefix.Tbl.reset t.dirty;
    f p
  | _ -> begin
    Metrics.incr t.c_drains;
    (* Ascending prefix order: deterministic, and identical to the
       pre-pipeline speaker's per-event processing order.  Chunks are
       collected and concatenated once — folding with [acc @ f p]
       re-copied the accumulator per prefix (quadratic in drain
       output).  Prefixes marked dirty *by* [f] land in the next
       drain: the batch is snapshotted and cleared before [f] runs.
       [reset] shrinks the table back to its initial size, the
       smallest, so the next drain's fold costs O(marked) however
       large this batch was. *)
    let batch = Array.make (Prefix.Tbl.length t.dirty) Prefix.default and i = ref 0 in
    Prefix.Tbl.iter
      (fun p () ->
        batch.(!i) <- p;
        incr i)
      t.dirty;
    Prefix.sort batch;
    Prefix.Tbl.reset t.dirty;
    let chunks = Array.map f batch in
    Array.fold_right ( @ ) chunks []
  end
