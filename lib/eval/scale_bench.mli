(** Internet-scale RIB benchmark: streaming table transfer and
    per-route footprint on CAIDA-style power-law topologies.

    Each {!row} converges a background prefix set across the whole
    topology, then loads a full-size table at a single-homed stub feed
    whose provider (a route collector) re-exports nothing, and bounces
    the feed link three ways to compare table-transfer cost:

    - [batched_transfer_msgs]/[batched_transfer_bytes]: no graceful
      restart — the session-establish re-announce storm.  The table
      shares one attribute set, so it crosses in [batch_frames]
      multi-prefix frames (see {!Dbgp_netsim.Network.set_mrai});
    - [full_transfer_msgs]/[full_transfer_bytes]: the same storm's
      per-prefix baseline, derived from that run — one message per
      route (frames plus [net.batch.saved]) and one single-prefix
      encoding per route (the sum of {!Dbgp_core.Codec.size} over the
      routes the transfer carried);
    - [clean_transfer_msgs]: re-establish inside the graceful window
      with nothing changed — the streamed incremental sync should send
      ~0 and skip ~the whole table ([clean_skipped]);
    - [churn_transfer_msgs]: [churn_routes] re-originated while the
      session was down — the sync should re-send just those.

    Like [full_transfer_msgs], the clean and churn arms count per-prefix
    messages, so all three compare route for route.

    [words_per_route] is the network's [Obj.reachable_words] delta
    across the table load (FIB index built, shared blocks counted
    once) divided by the table size: the combined sender + receiver
    resident footprint of one route.  [attr_sets] is the compact route
    store's resident shared attribute-set count after the load, and the
    intern tables' caps are reported, not silent:
    [string_clears]/[value_clears]/[descriptor_clears] count the wholesale
    resets of the string, descriptor-value and descriptor-list intern
    tables during the cell;
    [peak_heap_words]/[live_words] are the process major-heap
    high-water mark and post-full-major live set.  The results ship in
    [BENCH_scale.json]. *)

type row = {
  ases : int;
  prefixes : int;       (** feed table size *)
  bg_prefixes : int;
  edges : int;
  bg_updates : int;
  bg_elapsed_s : float;
  bg_updates_per_s : float;
  load_updates : int;
  load_elapsed_s : float;
  load_cpu_s : float;
  load_updates_per_s : float;
  words_per_route : float;
  attr_sets : int;
  string_clears : int;
  value_clears : int;
  descriptor_clears : int;
  peak_heap_words : int;
  live_words : int;
  full_transfer_msgs : int;
  full_transfer_bytes : int;
  batched_transfer_msgs : int;
  batched_transfer_bytes : int;
  batch_frames : int;
  clean_transfer_msgs : int;
  clean_skipped : int;
  churn_routes : int;
  churn_transfer_msgs : int;
}

val caps : unit -> (string * int) list
(** The route store's capacity counters in the calling domain, by name:
    the [clears] of the string, descriptor-value and descriptor-list
    intern tables (cumulative; rows report their
    deltas). *)

val feed_prefix : int -> Dbgp_types.Prefix.t
(** The deterministic table contents: /24s spread over 192.0.0.0/2 by a
    multiplicative hash (distinct for indices below ~4M). *)

val run :
  ?seed:int ->
  ?bg:int ->
  ases:int ->
  prefixes:int ->
  unit ->
  row
(** One cell: build, converge background, load the table, bounce the
    feed link three ways, under MRAI 0.5 s, re-originating 5% of the
    table during the outage.  Defaults: [seed 42], [bg 32]. *)

val suite : ?seed:int -> ?grid:(int * int) list -> unit -> row list
(** Default grid: {1k, 10k} ASes x {1k, 100k} prefixes, plus the two
    Internet-scale rows — 70k ASes with a 10k-prefix table (background
    set reduced to 8) and 1k ASes with a 1M-prefix table. *)

val to_snapshot : row -> Dbgp_obs.Snapshot.t
val pp : Format.formatter -> row -> unit
