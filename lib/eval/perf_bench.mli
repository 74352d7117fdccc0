(** Hot-path performance benchmark: the numbers behind the
    allocation-elimination work (interned IAs, encode-once wire sharing,
    heap-backed event queue).

    Converges seeded BRITE topologies at 64+ originated prefixes under
    MRAI batching and reports sustained updates/s (wall and CPU), GC
    words allocated per delivered update, and the
    [wire.encode_cache.*] / [wire.decode_memo.*] hit rates from
    {!Dbgp_core.Codec.wire_metrics} counter deltas around the run.

    Every message is encoded by the sender and robustly decoded by the
    receiver, so both wire caches face real fan-out traffic.

    Topology and message counts are deterministic for a given seed; the
    timing and GC fields are machine-dependent. *)

type row = {
  ases : int;
  prefixes : int;
  messages : int;          (** wire messages delivered network-wide *)
  updates : int;           (** announcements + withdrawals handed to speakers *)
  events : int;            (** simulator events executed *)
  elapsed_s : float;
  cpu_s : float;           (** user + system CPU time ([Unix.times]) *)
  updates_per_s : float;   (** wall-clock *)
  updates_per_cpu_s : float;
  minor_words_per_update : float;
  major_words_per_update : float;
  peak_heap_words : int;   (** major-heap high-water mark after the run *)
  live_words : int;        (** live words after the run (post full major) *)
  enc_hits : int;          (** [wire.encode_cache.hits] delta *)
  enc_misses : int;
  enc_hit_rate : float;
  dec_hits : int;          (** [wire.decode_memo.hits] delta *)
  dec_misses : int;
  dec_hit_rate : float;
}

type headline = {
  row : row;               (** largest row of the suite *)
  baseline_updates_per_s : float;
  baseline_minor_words_per_update : float;
  speedup : float;         (** row vs recorded pre-change baseline *)
  minor_words_reduction : float;  (** 1 - current/baseline *)
}

val run : ?prefixes:int -> ases:int -> unit -> row
(** Converges a seed-42 BRITE topology of [ases] ASes, [prefixes]
    (default 64) originated prefixes, MRAI 2.0 s. *)

val suite : unit -> row list
(** One {!run} per topology size: 100, 500 and 1000 ASes at 64
    prefixes. *)

val headline : row list -> headline option
(** The largest row compared against the recorded pre-change baseline
    (57,572 updates/s and 1487.3 minor words/update at 1000 ASes /
    64 prefixes on the reference machine, measured with in-memory
    delivery).  [None] on an empty list. *)

(** {1 Sharded axis}

    The same BRITE convergence workload on a partitioned shard
    ({!Dbgp_netsim.Shard}), swept over worker-domain counts at a fixed
    region count — every run executes the identical partitioned
    schedule, so the transcript digest doubles as the determinism
    oracle: any divergence from the 1-domain digest is a correctness
    failure, not noise. *)

type sharded_row = {
  s_ases : int;
  s_prefixes : int;
  s_domains : int;         (** worker domains actually used *)
  s_regions : int;
  s_cut_edges : int;
  s_lookahead : float;     (** conservative window: min cut latency + MRAI *)
  s_epochs : int;          (** barrier rounds *)
  s_messages : int;
  s_updates : int;
  s_events : int;
  s_elapsed_s : float;
  s_cpu_s : float;
  s_updates_per_s : float;
  s_speedup_vs_1 : float;  (** vs the sweep's first (1-domain) row *)
  s_transcript_md5 : string;
  s_transcript_match : bool;  (** digest equals the 1-domain digest *)
}

val domains_suite :
  ?prefixes:int -> ?regions:int -> ?domains:int list -> ases:int -> unit ->
  sharded_row list
(** One sharded convergence run (seed 42, MRAI 2.0 s; defaults: 64
    prefixes, 8 regions) per domain count (default [1; 2; 4; 8]), with
    speedups and transcript matches computed against the first row. *)

val sharded_to_snapshot : sharded_row -> Dbgp_obs.Snapshot.t
(** Includes a ["cores"] field ({!Domain.recommended_domain_count}) so
    recorded numbers carry their hardware context. *)

val pp_sharded : Format.formatter -> sharded_row -> unit

val to_snapshot : row -> Dbgp_obs.Snapshot.t
val headline_to_snapshot : headline -> Dbgp_obs.Snapshot.t
val pp : Format.formatter -> row -> unit
val pp_headline : Format.formatter -> headline -> unit
