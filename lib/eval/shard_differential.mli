(** Sharded differential scenarios: seeded workloads on partitioned
    topologies, fingerprinted with the {!Differential.digest} shape.

    The transcript MD5 covers the shard's merged per-region transcript
    (Loc-RIB changes, cross-partition deliveries, NACKs — totally
    ordered by (time, region, sequence)); the state MD5 is
    {!Differential.state_digest} over every speaker.  The oracle
    property: for a fixed seed and scenario, the digest is
    byte-identical for every [domains] value — the region count is
    part of the scenario, the domain count is pure execution policy.

    Scenarios: ["sharded-relay-line"] (the 6-AS line in 2 regions,
    mid-line cut + recovery over the partition boundary),
    ["sharded-hub-policy"] (policy hub with six real spokes in 2
    regions, MRAI 2.0, damping, 120 churn steps, a cut-link flap),
    ["sharded-chaos-30"] (30-AS BRITE graph in 4 regions, wire
    delivery, region-private fault streams on intra-region links,
    3 pinned link flaps).

    Golden digests for [domains = 1] live in
    [test/golden_sharded.txt]. *)

val scenarios : string list

val run : ?seed:int -> ?domains:int -> string -> Differential.digest
(** Run one scenario (default seed 42, 1 domain).
    @raise Invalid_argument on an unknown scenario name. *)

val run_all : ?domains:int -> unit -> Differential.digest list
(** Every scenario at seed 42, in {!scenarios} order. *)

val verify :
  ?domains:int ->
  string ->
  Differential.digest * Differential.digest * bool
(** [(sequential, sharded, equal)]: the scenario (seed 42) at 1 domain, at
    [domains] (default 2), and whether the digests match — the
    determinism oracle as a single call. *)
