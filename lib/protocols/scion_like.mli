(** A SCION-like path-based replacement protocol over D-BGP.

    Path-based protocols expose multiple within-island paths to sources,
    which encode the chosen one in packet headers (Sections 2.4 and
    3.4).  BGP's single-best-path limitation still forces one
    inter-island path per prefix at island borders (Section 3.5), but
    the island descriptor carries every within-island path, so a
    receiving SCION island regains intra-island path choice — exactly
    the Figure 3 -> Section 3.4 recovery. *)

val protocol : Dbgp_types.Protocol_id.t

type path = string list
(** Border-router hops, ingress first. *)

val attach :
  island:Dbgp_types.Island_id.t -> path list -> Dbgp_core.Ia.t -> Dbgp_core.Ia.t

val extract :
  island:Dbgp_types.Island_id.t -> Dbgp_core.Ia.t -> path list
(** The within-island paths advertised by one island ([[]] if none). *)

val choose_path : path list -> path option
(** Source-side selection: the shortest advertised path (deterministic
    tie-break on hop names). *)

val decision_module :
  island:Dbgp_types.Island_id.t ->
  exported:(unit -> path list) ->
  Dbgp_core.Decision_module.t
(** Border module: BGP-rule inter-island selection; contributes the
    island's current within-island path set. *)

val translation :
  island:Dbgp_types.Island_id.t ->
  origin_asn:Dbgp_types.Asn.t ->
  next_hop:Dbgp_types.Ipv4.t ->
  prefix:Dbgp_types.Prefix.t ->
  path list Dbgp_core.Translation.t
(** Ingress: read the paths other islands advertise.  Egress: attach my
    island's paths.  Redistribute: one plain-BGP route for [prefix]
    (the one path BGP can carry, Figure 3's "Redist. Path"). *)
