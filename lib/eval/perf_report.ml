(* The convergence report: one seed-42 BRITE workload, read back out
   through the speakers' pipeline counters and the wire-cache counters.
   The sequential row and the sharded sweep build the same topology
   (Convergence's graph walk) and originate the same prefixes. *)

open Dbgp_types
module Network = Dbgp_netsim.Network
module Shard = Dbgp_netsim.Shard
module Brite = Dbgp_topology.Brite
module Metrics = Dbgp_obs.Metrics
module Snapshot = Dbgp_obs.Snapshot

type row = {
  ases : int;
  prefixes : int;
  messages : int;
  updates : int;
  events : int;
  decision_runs : int;
  runs_reused : int;
  runs_per_update : float;
  dirty_marks : int;
  runs_saved : int;
  drains : int;
  export_hits : int;
  export_misses : int;
  export_hit_rate : float;
  enc_hits : int;
  enc_misses : int;
  enc_hit_rate : float;
  dec_hits : int;
  dec_misses : int;
  dec_hit_rate : float;
}

let seed = 42
let mrai = 2.0

let graph ~ases =
  Brite.generate (Prng.create seed) { Brite.default with Brite.n = ases }

(* Prefix [i] originated by AS [1 + i mod ases], so origins sit in
   different parts of the hierarchy. *)
let originate_all ~ases ~prefixes originate =
  for i = 0 to prefixes - 1 do
    let prefix = Prefix.of_string (Printf.sprintf "99.%d.0.0/24" i) in
    let origin = Asn.of_int (1 + (i mod ases)) in
    originate origin
      (Dbgp_core.Ia.originate ~prefix ~origin_asn:origin
         ~next_hop:(Network.speaker_addr origin) ())
  done

let wire_count name =
  Metrics.count (Metrics.counter (Dbgp_core.Codec.wire_metrics ()) name)

let ratio num den = if den = 0 then 0. else float_of_int num /. float_of_int den
let rate hits misses = ratio hits (hits + misses)

let run ?(prefixes = 64) ~ases () =
  let net = Convergence.network_of_graph (graph ~ases) in
  Network.set_mrai net mrai;
  originate_all ~ases ~prefixes (Network.originate net);
  let enc_hits0 = wire_count "wire.encode_cache.hits" in
  let enc_misses0 = wire_count "wire.encode_cache.misses" in
  let dec_hits0 = wire_count "wire.decode_memo.hits" in
  let dec_misses0 = wire_count "wire.decode_memo.misses" in
  let stats = Network.run net in
  let c = Network.counter_total net in
  let updates = c "updates.received" + c "withdrawals.received" in
  let decision_runs = c "decision.runs" in
  let export_hits = c "pipeline.export_cache.hits" in
  let export_misses = c "pipeline.export_cache.misses" in
  let enc_hits = wire_count "wire.encode_cache.hits" - enc_hits0 in
  let enc_misses = wire_count "wire.encode_cache.misses" - enc_misses0 in
  let dec_hits = wire_count "wire.decode_memo.hits" - dec_hits0 in
  let dec_misses = wire_count "wire.decode_memo.misses" - dec_misses0 in
  { ases;
    prefixes;
    messages = stats.Network.messages;
    updates;
    events = stats.Network.events;
    decision_runs;
    runs_reused = c "decision.reused";
    runs_per_update = ratio decision_runs updates;
    dirty_marks = c "pipeline.dirty_marks";
    runs_saved = c "pipeline.runs_saved";
    drains = c "pipeline.drains";
    export_hits;
    export_misses;
    export_hit_rate = rate export_hits export_misses;
    enc_hits;
    enc_misses;
    enc_hit_rate = rate enc_hits enc_misses;
    dec_hits;
    dec_misses;
    dec_hit_rate = rate dec_hits dec_misses }

let suite () = List.map (fun ases -> run ~ases ()) [ 100; 500; 1000 ]

let row_to_snapshot r =
  Snapshot.Obj
    [ ("ases", Snapshot.Int r.ases);
      ("prefixes", Snapshot.Int r.prefixes);
      ("messages", Snapshot.Int r.messages);
      ("updates", Snapshot.Int r.updates);
      ("events", Snapshot.Int r.events);
      ("decision_runs", Snapshot.Int r.decision_runs);
      ("runs_reused", Snapshot.Int r.runs_reused);
      ("runs_per_update", Snapshot.Float r.runs_per_update);
      ("dirty_marks", Snapshot.Int r.dirty_marks);
      ("runs_saved", Snapshot.Int r.runs_saved);
      ("drains", Snapshot.Int r.drains);
      ("export_hits", Snapshot.Int r.export_hits);
      ("export_misses", Snapshot.Int r.export_misses);
      ("export_hit_rate", Snapshot.Float r.export_hit_rate);
      ("encode_cache_hits", Snapshot.Int r.enc_hits);
      ("encode_cache_misses", Snapshot.Int r.enc_misses);
      ("encode_cache_hit_rate", Snapshot.Float r.enc_hit_rate);
      ("decode_memo_hits", Snapshot.Int r.dec_hits);
      ("decode_memo_misses", Snapshot.Int r.dec_misses);
      ("decode_memo_hit_rate", Snapshot.Float r.dec_hit_rate) ]

let to_snapshot rows =
  Snapshot.Obj
    [ ("seed", Snapshot.Int seed);
      ("mrai", Snapshot.Float mrai);
      ("rows", Snapshot.List (List.map row_to_snapshot rows)) ]

let pp ppf r =
  Format.fprintf ppf
    "%4d ASes %3d pfx %6d msgs %6d updates %6d events  %6d runs \
     (%.3f/update, %d saved, %d reused)  group-served %d/%d (%.0f%%)  enc %d/%d \
     (%.0f%%)  dec %d/%d (%.0f%%)"
    r.ases r.prefixes r.messages r.updates r.events r.decision_runs
    r.runs_per_update r.runs_saved r.runs_reused r.export_hits
    (r.export_hits + r.export_misses)
    (100. *. r.export_hit_rate) r.enc_hits
    (r.enc_hits + r.enc_misses)
    (100. *. r.enc_hit_rate) r.dec_hits
    (r.dec_hits + r.dec_misses)
    (100. *. r.dec_hit_rate)

(* ------------------------------------------------------------------ *)
(* Sharded sweep: the region count is fixed, so every run executes the *)
(* identical partitioned schedule — the domain count is pure execution *)
(* policy, and the transcript digest is the determinism oracle.        *)
(* ------------------------------------------------------------------ *)

type sharded_row = {
  s_ases : int;
  s_prefixes : int;
  s_domains : int;
  s_regions : int;
  s_cut_edges : int;
  s_lookahead : float;
  s_epochs : int;
  s_updates : int;
  s_updates_per_s : float;
  s_speedup_vs_1 : float;
  s_transcript_md5 : string;
  s_transcript_match : bool;
}

let run_sharded ~prefixes ~regions ~ases ~domains =
  let sh = Convergence.shard_of_graph ~mrai ~regions (graph ~ases) in
  Shard.enable_transcript sh;
  Shard.build sh;
  originate_all ~ases ~prefixes (fun origin ia ->
      Shard.originate sh (Asn.to_int origin) ia);
  let t0 = Unix.gettimeofday () in
  let stats = Shard.run ~domains sh in
  let elapsed = Unix.gettimeofday () -. t0 in
  let c = Shard.counter_total sh in
  let updates = c "updates.received" + c "withdrawals.received" in
  { s_ases = ases;
    s_prefixes = prefixes;
    s_domains = stats.Shard.domains;
    s_regions = stats.Shard.regions;
    s_cut_edges = stats.Shard.cut_edges;
    s_lookahead = stats.Shard.lookahead;
    s_epochs = stats.Shard.epochs;
    s_updates = updates;
    s_updates_per_s =
      (if elapsed > 0. then float_of_int updates /. elapsed else 0.);
    s_speedup_vs_1 = 1.;
    s_transcript_md5 = Shard.transcript_digest sh;
    s_transcript_match = true }

let domains_suite ?(prefixes = 64) ?(regions = 8) ~domains ~ases () =
  let rows =
    List.map (fun d -> run_sharded ~prefixes ~regions ~ases ~domains:d) domains
  in
  match rows with
  | [] -> []
  | base :: _ ->
    List.map
      (fun r ->
        { r with
          s_speedup_vs_1 =
            (if base.s_updates_per_s > 0. then
               r.s_updates_per_s /. base.s_updates_per_s
             else 0.);
          s_transcript_match = r.s_transcript_md5 = base.s_transcript_md5 })
      rows

let pp_sharded ppf r =
  Format.fprintf ppf
    "%4d ASes %3d pfx %d/%d domains/regions (%d cut, L=%.1f) %6d epochs  \
     %6d updates  %7.0f up/s  %.2fx vs 1-domain  transcript %s"
    r.s_ases r.s_prefixes r.s_domains r.s_regions r.s_cut_edges r.s_lookahead
    r.s_epochs r.s_updates r.s_updates_per_s r.s_speedup_vs_1
    (if r.s_transcript_match then "match" else "DIVERGED")
