(* Hot-path performance benchmark: the numbers behind the
   allocation-elimination work.

   Converges seeded BRITE topologies (same generator and policy wiring
   as {!Pipeline_bench}) at 64+ originated prefixes under MRAI batching
   and reports, per topology size:

   - sustained updates/s (wall and CPU) over the full convergence run;
   - GC allocation per delivered update ([Gc] minor/major word deltas);
   - encode-cache and decode-memo hit rates from
     {!Dbgp_core.Codec.wire_metrics} counter deltas around the run.

   Every message crosses a real serialization boundary — encode on the
   sender (amortised by the encode cache), robust decode on the
   receiver (amortised by the decode memo).

   The pre-change baseline constants below were measured at 1000 ASes /
   64 prefixes / MRAI 2.0 immediately before the interning +
   encode-once + heap-scheduler changes landed, with announcements
   handed over as in-memory values; [headline] reports the current run
   against them. *)

open Dbgp_types
module Network = Dbgp_netsim.Network
module Graph = Dbgp_topology.As_graph
module Brite = Dbgp_topology.Brite
module Metrics = Dbgp_obs.Metrics
module Snapshot = Dbgp_obs.Snapshot

type row = {
  ases : int;
  prefixes : int;
  messages : int;
  updates : int;
  events : int;
  elapsed_s : float;
  cpu_s : float;
  updates_per_s : float;
  updates_per_cpu_s : float;
  minor_words_per_update : float;
  major_words_per_update : float;
  peak_heap_words : int;
  live_words : int;
  enc_hits : int;
  enc_misses : int;
  enc_hit_rate : float;
  dec_hits : int;
  dec_misses : int;
  dec_hit_rate : float;
}

type headline = {
  row : row;
  baseline_updates_per_s : float;
  baseline_minor_words_per_update : float;
  speedup : float;
  minor_words_reduction : float;
}

(* Recorded at 1000 ASes / 64 prefixes / MRAI 2.0, in-memory
   delivery, at the commit preceding the hot-path work
   ("Restructure speaker into staged RIB pipeline..."). *)
let baseline_updates_per_s = 57_572.
let baseline_minor_words_per_update = 1487.3

let build ~ases =
  Convergence.network_of_graph
    (Brite.generate (Prng.create 42) { Brite.default with Brite.n = ases })

let wire_count name =
  Metrics.count (Metrics.counter (Dbgp_core.Codec.wire_metrics ()) name)

let rate hits misses =
  if hits + misses = 0 then 0.
  else float_of_int hits /. float_of_int (hits + misses)

let run ?(prefixes = 64) ~ases () =
  let net = build ~ases in
  Network.set_mrai net 2.0;
  for i = 0 to prefixes - 1 do
    let prefix = Prefix.of_string (Printf.sprintf "99.%d.0.0/24" i) in
    let origin = Asn.of_int (1 + (i mod ases)) in
    Network.originate net origin
      (Dbgp_core.Ia.originate ~prefix ~origin_asn:origin
         ~next_hop:(Network.speaker_addr origin) ())
  done;
  Gc.compact ();
  let enc_hits0 = wire_count "wire.encode_cache.hits" in
  let enc_misses0 = wire_count "wire.encode_cache.misses" in
  let dec_hits0 = wire_count "wire.decode_memo.hits" in
  let dec_misses0 = wire_count "wire.decode_memo.misses" in
  let g0 = Gc.quick_stat () in
  let tm0 = Unix.times () in
  let t0 = Unix.gettimeofday () in
  let stats = Network.run net in
  let elapsed = Unix.gettimeofday () -. t0 in
  let tm1 = Unix.times () in
  let g1 = Gc.quick_stat () in
  let cpu =
    tm1.Unix.tms_utime -. tm0.Unix.tms_utime
    +. (tm1.Unix.tms_stime -. tm0.Unix.tms_stime)
  in
  let c = Network.counter_total net in
  let updates = c "updates.received" + c "withdrawals.received" in
  let per_update w = if updates = 0 then 0. else w /. float_of_int updates in
  let enc_hits = wire_count "wire.encode_cache.hits" - enc_hits0 in
  let enc_misses = wire_count "wire.encode_cache.misses" - enc_misses0 in
  let dec_hits = wire_count "wire.decode_memo.hits" - dec_hits0 in
  let dec_misses = wire_count "wire.decode_memo.misses" - dec_misses0 in
  { ases;
    prefixes;
    messages = stats.Network.messages;
    updates;
    events = stats.Network.events;
    elapsed_s = elapsed;
    cpu_s = cpu;
    updates_per_s =
      (if elapsed > 0. then float_of_int updates /. elapsed else 0.);
    updates_per_cpu_s = (if cpu > 0. then float_of_int updates /. cpu else 0.);
    minor_words_per_update = per_update (g1.Gc.minor_words -. g0.Gc.minor_words);
    major_words_per_update = per_update (g1.Gc.major_words -. g0.Gc.major_words);
    peak_heap_words = g1.Gc.top_heap_words;
    live_words =
      (* Accurate live set needs a completed major cycle. *)
      (Gc.full_major ();
       (Gc.stat ()).Gc.live_words);
    enc_hits;
    enc_misses;
    enc_hit_rate = rate enc_hits enc_misses;
    dec_hits;
    dec_misses;
    dec_hit_rate = rate dec_hits dec_misses }

(* ------------------------------------------------------------------ *)
(* Sharded axis: the same BRITE convergence workload on a partitioned  *)
(* shard, swept over worker-domain counts.  The region count is fixed  *)
(* across the sweep so every run executes the identical partitioned    *)
(* schedule — the domain count is pure execution policy, and the       *)
(* transcript digest doubles as the determinism oracle.                *)
(* ------------------------------------------------------------------ *)

module Shard = Dbgp_netsim.Shard

type sharded_row = {
  s_ases : int;
  s_prefixes : int;
  s_domains : int;
  s_regions : int;
  s_cut_edges : int;
  s_lookahead : float;
  s_epochs : int;
  s_messages : int;
  s_updates : int;
  s_events : int;
  s_elapsed_s : float;
  s_cpu_s : float;
  s_updates_per_s : float;
  s_speedup_vs_1 : float;
  s_transcript_md5 : string;
  s_transcript_match : bool;
}

let build_sharded ~ases ~regions =
  let rng = Prng.create 42 in
  let g = Brite.generate rng { Brite.default with Brite.n = ases } in
  let sh =
    Shard.create ~mrai:2.0 ~regions
      ~make_speaker:(fun a ->
        let asn = Asn.of_int a in
        Dbgp_core.Speaker.create
          (Dbgp_core.Speaker.config ~asn ~addr:(Network.speaker_addr asn) ()))
      ()
  in
  for i = 1 to Graph.size g do
    Shard.add_as sh i
  done;
  Graph.fold_edges
    (fun a b view () ->
      let rel = Harness.relationship view in
      Shard.link sh ~a:(a + 1) ~b:(b + 1) ~b_is:rel ())
    g ();
  Shard.enable_transcript sh;
  Shard.build sh;
  sh

let run_sharded ~prefixes ~regions ~ases ~domains =
  let sh = build_sharded ~ases ~regions in
  for i = 0 to prefixes - 1 do
    let prefix = Prefix.of_string (Printf.sprintf "99.%d.0.0/24" i) in
    let origin = Asn.of_int (1 + (i mod ases)) in
    Shard.originate sh (Asn.to_int origin)
      (Dbgp_core.Ia.originate ~prefix ~origin_asn:origin
         ~next_hop:(Network.speaker_addr origin) ())
  done;
  Gc.compact ();
  let tm0 = Unix.times () in
  let t0 = Unix.gettimeofday () in
  let stats = Shard.run ~domains sh in
  let elapsed = Unix.gettimeofday () -. t0 in
  let tm1 = Unix.times () in
  let cpu =
    tm1.Unix.tms_utime -. tm0.Unix.tms_utime
    +. (tm1.Unix.tms_stime -. tm0.Unix.tms_stime)
  in
  let c = Shard.counter_total sh in
  let updates = c "updates.received" + c "withdrawals.received" in
  { s_ases = ases;
    s_prefixes = prefixes;
    s_domains = stats.Shard.domains;
    s_regions = stats.Shard.regions;
    s_cut_edges = stats.Shard.cut_edges;
    s_lookahead = stats.Shard.lookahead;
    s_epochs = stats.Shard.epochs;
    s_messages = stats.Shard.net.Network.messages;
    s_updates = updates;
    s_events = stats.Shard.net.Network.events;
    s_elapsed_s = elapsed;
    s_cpu_s = cpu;
    s_updates_per_s =
      (if elapsed > 0. then float_of_int updates /. elapsed else 0.);
    s_speedup_vs_1 = 1.;
    s_transcript_md5 = Shard.transcript_digest sh;
    s_transcript_match = true }

let domains_suite ?(prefixes = 64) ?(regions = 8) ?(domains = [ 1; 2; 4; 8 ])
    ~ases () =
  let rows =
    List.map
      (fun d -> run_sharded ~prefixes ~regions ~ases ~domains:d)
      domains
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

let sharded_to_snapshot r =
  Snapshot.Obj
    [ ("ases", Snapshot.Int r.s_ases);
      ("prefixes", Snapshot.Int r.s_prefixes);
      ("domains", Snapshot.Int r.s_domains);
      ("regions", Snapshot.Int r.s_regions);
      ("cut_edges", Snapshot.Int r.s_cut_edges);
      ("lookahead", Snapshot.Float r.s_lookahead);
      ("epochs", Snapshot.Int r.s_epochs);
      ("cores", Snapshot.Int (Domain.recommended_domain_count ()));
      ("messages", Snapshot.Int r.s_messages);
      ("updates", Snapshot.Int r.s_updates);
      ("events", Snapshot.Int r.s_events);
      ("elapsed_s", Snapshot.Float r.s_elapsed_s);
      ("cpu_s", Snapshot.Float r.s_cpu_s);
      ("updates_per_s", Snapshot.Float r.s_updates_per_s);
      ("speedup_vs_1_domain", Snapshot.Float r.s_speedup_vs_1);
      ("transcript_md5", Snapshot.String r.s_transcript_md5);
      ("transcript_match", Snapshot.Bool r.s_transcript_match) ]

let pp_sharded ppf r =
  Format.fprintf ppf
    "%4d ASes %3d pfx %d/%d domains/regions (%d cut, L=%.1f) %6d epochs  \
     %6d updates  %7.0f up/s  %.2fx vs 1-domain  transcript %s"
    r.s_ases r.s_prefixes r.s_domains r.s_regions r.s_cut_edges r.s_lookahead
    r.s_epochs r.s_updates r.s_updates_per_s r.s_speedup_vs_1
    (if r.s_transcript_match then "match" else "DIVERGED")

let suite () = List.map (fun ases -> run ~ases ()) [ 100; 500; 1000 ]

let headline rows =
  let pick =
    List.fold_left
      (fun acc r ->
        match acc with
        | Some best when best.ases >= r.ases -> acc
        | _ -> Some r)
      None rows
  in
  match pick with
  | None -> None
  | Some row ->
    Some
      { row;
        baseline_updates_per_s;
        baseline_minor_words_per_update;
        speedup = row.updates_per_s /. baseline_updates_per_s;
        minor_words_reduction =
          1. -. (row.minor_words_per_update /. baseline_minor_words_per_update)
      }

let to_snapshot r =
  Snapshot.Obj
    [ ("ases", Snapshot.Int r.ases);
      ("prefixes", Snapshot.Int r.prefixes);
      ("messages", Snapshot.Int r.messages);
      ("updates", Snapshot.Int r.updates);
      ("events", Snapshot.Int r.events);
      ("elapsed_s", Snapshot.Float r.elapsed_s);
      ("cpu_s", Snapshot.Float r.cpu_s);
      ("updates_per_s", Snapshot.Float r.updates_per_s);
      ("updates_per_cpu_s", Snapshot.Float r.updates_per_cpu_s);
      ("minor_words_per_update", Snapshot.Float r.minor_words_per_update);
      ("major_words_per_update", Snapshot.Float r.major_words_per_update);
      ("peak_heap_words", Snapshot.Int r.peak_heap_words);
      ("live_words", Snapshot.Int r.live_words);
      ("encode_cache_hits", Snapshot.Int r.enc_hits);
      ("encode_cache_misses", Snapshot.Int r.enc_misses);
      ("encode_cache_hit_rate", Snapshot.Float r.enc_hit_rate);
      ("decode_memo_hits", Snapshot.Int r.dec_hits);
      ("decode_memo_misses", Snapshot.Int r.dec_misses);
      ("decode_memo_hit_rate", Snapshot.Float r.dec_hit_rate) ]

let headline_to_snapshot h =
  Snapshot.Obj
    [ ("ases", Snapshot.Int h.row.ases);
      ("prefixes", Snapshot.Int h.row.prefixes);
      ("updates_per_s", Snapshot.Float h.row.updates_per_s);
      ("baseline_updates_per_s", Snapshot.Float h.baseline_updates_per_s);
      ("speedup", Snapshot.Float h.speedup);
      ("minor_words_per_update", Snapshot.Float h.row.minor_words_per_update);
      ( "baseline_minor_words_per_update",
        Snapshot.Float h.baseline_minor_words_per_update );
      ("minor_words_reduction", Snapshot.Float h.minor_words_reduction) ]

let pp ppf r =
  Format.fprintf ppf
    "%4d ASes %3d pfx %6d updates  %7.0f up/s (%7.0f cpu)  \
     %6.0f minor w/up  enc %d/%d (%.0f%%)  dec %d/%d (%.0f%%)"
    r.ases r.prefixes r.updates r.updates_per_s r.updates_per_cpu_s r.minor_words_per_update
    r.enc_hits
    (r.enc_hits + r.enc_misses)
    (100. *. r.enc_hit_rate) r.dec_hits
    (r.dec_hits + r.dec_misses)
    (100. *. r.dec_hit_rate)

let pp_headline ppf h =
  Format.fprintf ppf
    "%d ASes / %d prefixes: %.0f updates/s vs %.0f baseline \
     (%.2fx); %.0f minor words/update vs %.1f baseline (%.0f%% less)"
    h.row.ases h.row.prefixes h.row.updates_per_s h.baseline_updates_per_s
    h.speedup h.row.minor_words_per_update h.baseline_minor_words_per_update
    (100. *. h.minor_words_reduction)
