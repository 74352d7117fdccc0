(** Differential test harness: seeded workloads with golden fingerprints.

    Each scenario drives speakers through a deterministic seeded workload
    and folds the observable behaviour into MD5 digests: the ordered
    message transcript (every injected, received and transmitted message,
    byte-encoded) and the final state (best routes, FIB next hops,
    Adj-RIB-Out views).  Digests recorded against the pre-pipeline
    speaker live in [test/golden_differential.txt]; the staged-RIB
    speaker must reproduce them byte for byte, proving the refactor is
    change-equivalent — identical best paths and an identical (ordered,
    hence multiset-) message sequence.

    Sequential scenarios: ["relay-line"] (6-AS line, mid-line cut +
    recovery, legacy edge, membership-stripping export), ["hub-policy"]
    (policy-rich hub under 400 steps of seeded churn with damping,
    graceful restart, refresh), ["chaos-30"] (full seeded chaos run over
    a BRITE topology).

    Sharded scenarios run on a partitioned topology
    ({!Dbgp_netsim.Shard}); their transcript MD5 covers the shard's
    merged per-region transcript (Loc-RIB changes, cross-partition
    deliveries, NACKs — totally ordered by (time, region, sequence)).
    The oracle property: for a fixed seed and scenario, the digest is
    byte-identical for every domain count — the region count is part of
    the scenario, the domain count is pure execution policy.
    ["sharded-relay-line"] (the 6-AS line in 2 regions, mid-line cut +
    recovery over the partition boundary), ["sharded-hub-policy"]
    (policy hub with six real spokes in 2 regions, MRAI 2.0, damping,
    120 churn steps, a cut-link flap), ["sharded-chaos-30"] (30-AS BRITE
    graph in 4 regions, region-private fault streams on intra-region
    links, 3 pinned link flaps).  Their 1-domain digests live in
    [test/golden_sharded.txt]. *)

type digest = {
  scenario : string;
  steps : int;            (** workload steps executed *)
  messages : int;         (** messages recorded in the transcript *)
  transcript_md5 : string;
  state_md5 : string;
}

val scenarios : string list
(** The sequential scenarios, then the sharded ones (named
    ["sharded-*"]). *)

val run : ?seed:int -> ?domains:int -> string -> digest
(** Run one scenario (default seed 42) — a sharded one on [domains]
    worker domains (default 1); the sequential ones ignore [domains].
    @raise Invalid_argument on an unknown scenario name. *)

val verify : ?domains:int -> string -> digest * digest * bool
(** [(one, many, equal)]: the scenario (seed 42) at 1 domain, at
    [domains] (default 2), and whether the digests match — the
    determinism oracle as a single call. *)

val equal : digest -> digest -> bool

val to_line : digest -> string
(** One tab-separated golden-file line. *)

val of_line : string -> digest option
(** Parse a golden-file line ([None] on malformed input). *)
