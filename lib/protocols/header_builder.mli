(** Building multi-network-protocol header stacks from an IA.

    Requirement G-R4 exists partly "to inform sources how to create
    multi-network-protocol headers" (Section 2.5): the path vector plus
    island membership says {e which} protocols appear in {e which} order
    on the path, and island descriptors carry the protocol-specific
    material (SCION paths, pathlet FIDs).  This module turns that
    information into a {!Dbgp_dataplane.Header.stack} a source can put
    on its packets:

    - the innermost header is plain IPv4 to the destination;
    - for each island on the path that advertised within-island paths or
      pathlets, a SCION / pathlet header encoding the source's choice;
    - islands separated from the traffic source by a gulf get a tunnel
      header to their ingress address (routing compliance, Section 2.1 —
      optional in general, required here to reach the island's entry). *)

val build :
  ia:Dbgp_core.Ia.t ->
  src:Dbgp_types.Ipv4.t ->
  dst:Dbgp_types.Ipv4.t ->
  ingress_of:(Dbgp_types.Island_id.t -> Dbgp_types.Ipv4.t option) ->
  Dbgp_dataplane.Header.stack
(** The full stack, outermost first: for each island on the path, in
    travel order (nearest the source first), a tunnel header to its
    ingress when a gulf precedes it and [ingress_of] knows that ingress
    (the first island needs none: the source reaches it by plain
    forwarding), then the island's header if it has one — SCION islands
    get the shortest advertised path, pathlet islands the FID sequence of
    the first composable route to the destination prefix (none if their
    pathlets do not reach it); then the innermost IPv4 header. *)
