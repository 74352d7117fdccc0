(** Sharded simulation: one topology partitioned into regions, one
    OCaml domain per region, synchronized conservatively at epoch
    barriers.

    Build flow: {!create} with a speaker factory, declare the topology
    with {!add_as} and {!link}, then {!build} — which partitions the
    peering graph ({!Partition}), constructs one {!Network} per region
    (cut edges become {!Network.half_link} pairs) and wires the
    cross-partition mailboxes.  After building, declare workload
    ({!originate}, {!schedule_fail}, …) and {!run}.

    Correctness: the lookahead L is the minimum latency over cut edges
    plus the MRAI interval (cross-partition sends skip sender-side
    coalescing, so L lower-bounds every send-to-arrival distance).
    Each epoch executes events strictly below the horizon
    [T + L] where T is the global minimum next-event time; any message
    sent inside the window arrives at or after the horizon, so no
    region ever receives an arrival in its executed past.

    Determinism: horizons, mailbox drain order ((arrival time, source
    region, push index)) and per-region execution depend only on
    simulation state — never on which domain runs which region — so
    transcripts are byte-identical between 1-domain and N-domain runs
    of the same partitioned schedule. *)

type t

type stats = {
  net : Network.stats;  (** merged across regions; [events] summed,
                            [converged_at] is the max *)
  epochs : int;         (** barrier rounds executed *)
  domains : int;        (** actual domain count used *)
  regions : int;
  cut_edges : int;
  lookahead : float;
}

val create :
  ?mrai:float ->
  ?regions:int ->
  make_speaker:(int -> Dbgp_core.Speaker.t) ->
  unit ->
  t
(** [make_speaker asn] must create the speaker at
    {!Network.speaker_addr} (checked at {!build}) — remote peer stubs
    are derived from that address.  [regions] defaults to 2.
    @raise Invalid_argument on a negative MRAI or [regions < 1]. *)

(** {1 Topology declaration} (before {!build}) *)

val add_as : t -> int -> unit

val link :
  t ->
  ?latency:float ->
  ?pinned:bool ->
  ?a_export:Dbgp_core.Filters.t ->
  ?b_export:Dbgp_core.Filters.t ->
  ?a_dbgp:bool ->
  ?b_dbgp:bool ->
  a:int ->
  b:int ->
  b_is:Dbgp_bgp.Policy.relationship ->
  unit ->
  unit
(** Mirrors {!Network.link}.  [pinned] forces both endpoints into the
    same region — required for links carrying fault-model parameters
    or graceful-restart windows, whose state must stay region-private.
    @raise Invalid_argument on a non-positive latency. *)

val build : t -> unit
(** Partition and construct the per-region networks.  Declaration
    calls raise after this; everything below requires it. *)

(** {1 Queries} *)

val partition : t -> Partition.t
val regions : t -> int
val region_of : t -> int -> int
val network : t -> int -> Network.t
(** The region's network (by region index, not ASN). *)

val lookahead : t -> float
(** {!Partition.lookahead} plus the MRAI interval; [infinity] when no
    edge is cut. *)

val speaker : t -> int -> Dbgp_core.Speaker.t
val speakers : t -> (int * Dbgp_core.Speaker.t) list
(** All speakers across regions, sorted by ASN. *)

(** {1 Workload} *)

val originate : ?at:float -> t -> int -> Dbgp_core.Ia.t -> unit
(** [at] (default 0, i.e. immediately) schedules the injection at an
    absolute simulated time on the owning region's queue. *)

val withdraw_origin : ?at:float -> t -> int -> Dbgp_types.Prefix.t -> unit
(** Same [at] semantics as {!originate}. *)

val set_damping : t -> Dbgp_bgp.Flap_damping.params option -> unit

val schedule_fail : t -> at:float -> int -> int -> unit
(** Fail a link at an absolute time.  Intra-region links use
    {!Network.fail_link}; cut links fire {!Network.fail_half} at the
    same simulated time in both regions (lockstep, no cross-domain
    call). *)

val schedule_recover : t -> at:float -> int -> int -> unit

val fault_models : t -> seed:int -> Fault_model.t array
(** Create and attach one fault model per region, seeded from
    {!Dbgp_types.Prng.split_n} of [seed] — independent deterministic
    streams.  Callers must set per-link parameters only on intra-region
    (pinned) links: cut links are fault-free by contract, and
    region-local PRNG draw order is what keeps runs reproducible. *)

(** {1 Determinism transcript} *)

val enable_transcript : t -> unit
(** Record per-region logs: every Loc-RIB change ([C] lines, via the
    change feed), every cross-partition delivery ([X]) and NACK ([N]).
    Callable before or after {!build}. *)

val transcript_digest : t -> string
(** MD5 over the merged transcript, ordered by (time, region,
    per-region sequence) — the byte-identity oracle: equal digests
    between a 1-domain and an N-domain run of the same schedule. *)

(** {1 Execution} *)

val run : ?max_events:int -> ?domains:int -> t -> stats
(** Run to quiescence (all queues and mailboxes empty) or until the
    global event budget is hit ([stats.net.exhausted]).  [domains]
    (default 1, capped at the region count) selects the worker pool
    size; regions are statically assigned round-robin.  Safe to call
    once per shard.
    @raise Invalid_argument if [domains < 1]. *)

(** {1 Observability} *)

val metrics : t -> Dbgp_obs.Metrics.t
(** Fresh registry merging every region's network registry plus the
    per-domain wire-codec registries collected at the end of {!run}. *)

val counter_total : t -> string -> int
(** {!Network.counter_total} summed across regions. *)

val stale_total : t -> int
