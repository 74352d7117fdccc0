(** A LISP-like critical fix: locator/identifier separation for mobility
    (Farinacci et al., RFC 6830; Table 1's "dest. ingress IDs").

    Destinations are named by endpoint identifiers (EIDs, here a prefix
    in a non-routable space); the routing system only carries routing
    locators (RLOCs).  The island descriptor names the mapping-service
    portal, and a map request resolves an EID to the destination's
    current ingress RLOC — which keeps working across gulfs once the
    descriptor passes through, and survives the destination moving
    (re-registering a new RLOC) without any new advertisement. *)

val protocol : Dbgp_types.Protocol_id.t

val service : string

type config = {
  my_island : Dbgp_types.Island_id.t;
  map_server : Dbgp_types.Ipv4.t;
  io : Portal_io.t;
}

type t

val create : config -> t

val advertise : t -> Dbgp_core.Ia.t -> Dbgp_core.Ia.t
(** Attach the mapping-service descriptor. *)

val register :
  t -> eid:Dbgp_types.Prefix.t -> rloc:Dbgp_types.Ipv4.t -> unit
(** The destination (re-)registers its current ingress locator — this is
    the mobility event. *)

val resolve :
  io:Portal_io.t ->
  map_server:Dbgp_types.Ipv4.t ->
  eid:Dbgp_types.Prefix.t ->
  Dbgp_types.Ipv4.t option
(** A source resolves an EID to the current RLOC; traffic is then
    tunneled to the RLOC (see {!Dbgp_dataplane.Header.Tunnel_hdr}). *)
