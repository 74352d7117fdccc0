(** An HLP-like hybrid link-state / path-vector replacement protocol
    (Subramanian et al., SIGCOMM '05).

    Within the island, routing is link-state (see
    {!Dbgp_topology.Link_state}); across islands it is path-vector with
    an accumulated cost.  Because the within-island link-state paths
    cannot be expressed as a path vector, the island {b must} list its
    island ID in the D-BGP path vector, abstracting its interior — the
    paper's Section 3.2 example of why island-ID entries exist.

    The border decision module accumulates, per traversal, the Dijkstra
    distance between the island's ingress and egress routers on top of
    the advertised inter-island cost, and selects the cheapest total. *)

val protocol : Dbgp_types.Protocol_id.t

val field_cost : string
(** Path descriptor: accumulated HLP cost of the path so far. *)

val cost_of : Dbgp_core.Ia.t -> int option

type config = {
  my_island : Dbgp_types.Island_id.t;
  lsdb : Dbgp_topology.Link_state.t;  (** the island's link-state database *)
  ingress : string;  (** border router receiving traffic for this direction *)
  egress : string;   (** border router where advertised routes leave *)
  peering_cost : int;  (** cost of the inter-island hop itself *)
}

val decision_module : config -> Dbgp_core.Decision_module.t
(** Select: lowest advertised cost (unknown ranks last), then shortest
    path vector.  Contribute: cost += Dijkstra(ingress, egress) +
    peering cost; drops the route if the island interior is partitioned
    (no ingress->egress path). *)
