(** CAIDA-style AS-relationship topologies: a power-law generator and a
    serial-1 snapshot loader.

    The CAIDA AS-relationship datasets describe the measured Internet as
    customer/provider and settlement-free peering links over ~75k ASes
    with a heavy power-law degree distribution.  This module produces
    {!As_graph.t} values of the same shape two ways:

    - {!generate}: a seeded synthetic generator — a fully peered tier-1
      clique plus degree-proportional (preferential-attachment) provider
      selection for every later AS, which yields the power-law tail; a
      configurable fraction of ASes multi-home, and extra peering links
      are sprinkled degree-proportionally.  Scales to ~10k ASes in-tree
      benchmarks comfortably.
    - {!parse_serial1}: the real thing — CAIDA's
      serial-1 format ([provider|customer|-1], [peer|peer|0], [#]
      comments), for 70k+-AS offline snapshots. *)

type params = {
  n : int;              (** number of ASes; >= 2 *)
  tier1 : int;          (** size of the fully peered transit-free core *)
  max_providers : int;  (** multihoming cap per AS; >= 1 *)
  multihome : float;
      (** probability of each additional provider beyond the first,
          geometric, in [0, 1) *)
  peering : float;      (** extra peering links as a fraction of [n] *)
}

val default : params
(** [n = 10_000], [tier1 = 12], [max_providers = 3], [multihome = 0.45],
    [peering = 0.25] — a 10k-AS graph with CAIDA-like shape. *)

val generate : Dbgp_types.Prng.t -> params -> As_graph.t
(** Deterministic in the PRNG state.  The result is connected (every
    non-core AS reaches the core through its first provider) and the
    customer->provider orientation is acyclic (providers are always
    earlier ids).  @raise Invalid_argument on nonsensical parameters. *)

val parse_serial1 : string -> As_graph.t * int array
(** Parse the contents of a CAIDA serial-1 AS-relationship file.
    Returns the graph over dense indices plus the index -> original AS
    number mapping (first-appearance order).
    @raise Invalid_argument on malformed lines. *)
