(** The convergence report behind [dbgp-sim perf] and BENCH_perf.json:
    what the staged RIB pipeline and the wire caches save on one
    workload, in counters only.

    The workload converges a seed-42 BRITE topology with 64 originated
    prefixes under MRAI 2.0 s, so arriving updates are batched into each
    speaker's dirty-prefix scheduler and every message crosses the wire
    (encoded by the sender, robustly decoded by the receiver).  A row
    reads the speakers' [decision.runs] and [pipeline.*] counters and
    the {!Dbgp_core.Codec.wire_metrics} deltas around the run:

    - {e decision runs per delivered update}: below 1.0 whenever
      coalescing beats the eager run-per-message speaker;
    - the {e export hit rate}: each route change evaluates egress once
      per peer group ([export_misses]) and serves the other members
      from it ([export_hits]);
    - the {e reused runs} ([decision.reused]): decision runs served by
      the previous run of their drain, whose Adj-RIB-In row was
      physically the same;
    - the encode-cache and decode-memo hit rates.

    Every field is deterministic for the default hash seed, so the
    committed BENCH_perf.json is diffed against a fresh run in
    [test/cli].  Time is measured by [perfbench/] (its [converge]
    workload is this one at 1000 ASes), not here. *)

type row = {
  ases : int;
  prefixes : int;
  messages : int;          (** wire messages delivered network-wide *)
  updates : int;           (** announcements + withdrawals handed to speakers *)
  events : int;            (** simulator events executed *)
  decision_runs : int;
  runs_reused : int;       (** runs that took the drain's previous result *)
  runs_per_update : float; (** < 1.0 means coalescing beat run-per-message *)
  dirty_marks : int;
  runs_saved : int;
  drains : int;
  export_hits : int;
  export_misses : int;
  export_hit_rate : float;
  enc_hits : int;          (** [wire.encode_cache.hits] delta *)
  enc_misses : int;
  enc_hit_rate : float;
  dec_hits : int;          (** [wire.decode_memo.hits] delta *)
  dec_misses : int;
  dec_hit_rate : float;
}

val run : ?prefixes:int -> ases:int -> unit -> row
(** Converges the workload at [ases] ASes and [prefixes] (default 64)
    prefixes, prefix [i] originated by AS [1 + i mod ases]. *)

val suite : unit -> row list
(** One {!run} per topology size: 100, 500 and 1000 ASes, in that order
    (the wire caches persist across runs, so the order is part of the
    result). *)

val to_snapshot : row list -> Dbgp_obs.Snapshot.t
(** The BENCH_perf.json document: the workload's seed and MRAI, then
    one object per row. *)

val pp : Format.formatter -> row -> unit

(** {1 Sharded sweep}

    The same workload on a partitioned {!Dbgp_netsim.Shard}, swept over
    worker-domain counts at a fixed region count.  Every run executes
    the identical partitioned schedule, so the transcript digest is the
    determinism oracle: a divergence from the first row's digest is a
    correctness failure, not noise.  The throughput columns are single
    wall-clock samples for the terminal; they enter no committed file. *)

type sharded_row = {
  s_ases : int;
  s_prefixes : int;
  s_domains : int;         (** worker domains actually used *)
  s_regions : int;
  s_cut_edges : int;
  s_lookahead : float;     (** conservative window: min cut latency + MRAI *)
  s_epochs : int;          (** barrier rounds *)
  s_updates : int;
  s_updates_per_s : float; (** wall-clock *)
  s_speedup_vs_1 : float;  (** vs the sweep's first row *)
  s_transcript_md5 : string;
  s_transcript_match : bool;  (** digest equals the first row's *)
}

val domains_suite :
  ?prefixes:int -> ?regions:int -> domains:int list -> ases:int -> unit ->
  sharded_row list
(** One sharded run (defaults: 64 prefixes, 8 regions) per domain
    count, with speedups and transcript matches computed against the
    first row. *)

val pp_sharded : Format.formatter -> sharded_row -> unit
