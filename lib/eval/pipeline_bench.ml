(* Pipeline benchmark: quantifies what the staged RIB pipeline saves.

   Converges a BRITE topology under a positive MRAI (so the receive side
   batches into the dirty-prefix scheduler) and reports, from the
   speakers' own pipeline counters, how many decision runs the
   coalescing avoided and how many neighbors were served by their peer
   group's single egress evaluation. *)

open Dbgp_types
module Network = Dbgp_netsim.Network
module Graph = Dbgp_topology.As_graph
module Brite = Dbgp_topology.Brite
module Snapshot = Dbgp_obs.Snapshot

type row = {
  ases : int;
  prefixes : int;
  messages : int;          (* wire messages delivered network-wide *)
  updates : int;           (* announcements + withdrawals handed to speakers *)
  decision_runs : int;
  runs_per_update : float; (* < 1.0 means coalescing beat run-per-message *)
  dirty_marks : int;
  runs_saved : int;
  drains : int;
  export_hits : int;
  export_misses : int;
  export_hit_rate : float;
  elapsed_s : float;
  updates_per_s : float;
}

let build ~ases =
  Convergence.network_of_graph
    (Brite.generate (Prng.create 42) { Brite.default with Brite.n = ases })

let run ~ases () =
  let prefixes = 4 in
  let net = build ~ases in
  Network.set_mrai net 2.0;
  (* One prefix per origin AS, spread over the low ASNs so origins sit in
     different parts of the hierarchy. *)
  for i = 0 to prefixes - 1 do
    let prefix = Prefix.of_string (Printf.sprintf "99.%d.0.0/24" i) in
    let origin = Asn.of_int (1 + (i mod ases)) in
    Network.originate net origin
      (Dbgp_core.Ia.originate ~prefix ~origin_asn:origin
         ~next_hop:(Network.speaker_addr origin) ())
  done;
  Gc.compact ();
  let t0 = Unix.gettimeofday () in
  let stats = Network.run net in
  let elapsed = Unix.gettimeofday () -. t0 in
  let c = Network.counter_total net in
  let updates = c "updates.received" + c "withdrawals.received" in
  let decision_runs = c "decision.runs" in
  let hits = c "pipeline.export_cache.hits" in
  let misses = c "pipeline.export_cache.misses" in
  { ases;
    prefixes;
    messages = stats.Network.messages;
    updates;
    decision_runs;
    runs_per_update =
      (if updates = 0 then 0.
       else float_of_int decision_runs /. float_of_int updates);
    dirty_marks = c "pipeline.dirty_marks";
    runs_saved = c "pipeline.runs_saved";
    drains = c "pipeline.drains";
    export_hits = hits;
    export_misses = misses;
    export_hit_rate =
      (if hits + misses = 0 then 0.
       else float_of_int hits /. float_of_int (hits + misses));
    elapsed_s = elapsed;
    updates_per_s =
      (if elapsed > 0. then float_of_int updates /. elapsed else 0.) }

let suite () = List.map (fun ases -> run ~ases ()) [ 100; 500; 1000 ]

let to_snapshot r =
  Snapshot.Obj
    [ ("ases", Snapshot.Int r.ases);
      ("prefixes", Snapshot.Int r.prefixes);
      ("messages", Snapshot.Int r.messages);
      ("updates", Snapshot.Int r.updates);
      ("decision_runs", Snapshot.Int r.decision_runs);
      ("runs_per_update", Snapshot.Float r.runs_per_update);
      ("dirty_marks", Snapshot.Int r.dirty_marks);
      ("runs_saved", Snapshot.Int r.runs_saved);
      ("drains", Snapshot.Int r.drains);
      ("export_hits", Snapshot.Int r.export_hits);
      ("export_misses", Snapshot.Int r.export_misses);
      ("export_hit_rate", Snapshot.Float r.export_hit_rate);
      ("elapsed_s", Snapshot.Float r.elapsed_s);
      ("updates_per_s", Snapshot.Float r.updates_per_s) ]

let pp ppf r =
  Format.fprintf ppf
    "%4d ASes  %6d msgs  %6d updates  %6d runs (%.3f/update, %d saved)  \
     group-served %d/%d (%.0f%%)  %.2fs"
    r.ases r.messages r.updates r.decision_runs r.runs_per_update r.runs_saved
    r.export_hits
    (r.export_hits + r.export_misses)
    (100. *. r.export_hit_rate)
    r.elapsed_s
