(** MIRO deployed over D-BGP (custom protocol; Xu & Rexford, SIGCOMM '06).

    A MIRO island sells alternate paths.  With plain BGP the service is
    undiscoverable beyond direct neighbors (Figure 2); with D-BGP the
    island attaches an island descriptor naming its service portal, which
    passes through gulfs, enabling both on-path and off-path discovery
    (Section 3.4).  Interested islands then negotiate out-of-band and
    tunnel their traffic to the purchased path. *)

val protocol : Dbgp_types.Protocol_id.t

val field_portal : string
val service : string

type offer = {
  dest : Dbgp_types.Prefix.t;
  via : string;            (** human-readable path identifier *)
  price : int;
  tunnel_endpoint : Dbgp_types.Ipv4.t;
}

type config = {
  my_island : Dbgp_types.Island_id.t;
  portal : Dbgp_types.Ipv4.t;
  offers : offer list;
}

type t

val create : config -> t

val advertise : t -> Dbgp_core.Ia.t -> Dbgp_core.Ia.t
(** Attach the island descriptor advertising the service (portal address
    and number of alternate paths offered). *)

val serve : t -> Dbgp_core.Value.t -> Dbgp_core.Value.t option
(** The portal's RPC handler.  Request: [Pair (Pfx dest, Int budget)].
    Response: [Pair (Str via, Addr tunnel_endpoint)] for the cheapest
    offer within budget, [None] otherwise.  Register it on the lookup
    service at [(portal, service)]. *)

val sold : t -> (Dbgp_types.Prefix.t * string) list
(** Negotiations concluded so far (dest, path id), in order. *)

(** {1 Customer side} *)

type discovered = {
  island : Dbgp_types.Island_id.t;
  portal_addr : Dbgp_types.Ipv4.t;
  n_paths : int;
}

val discover : Dbgp_core.Ia.t -> discovered list
(** Every MIRO service advertised in the IA — works for on-path and,
    when IAs for other destinations are inspected, off-path discovery. *)

val negotiate :
  io:Portal_io.t ->
  portal:Dbgp_types.Ipv4.t ->
  dest:Dbgp_types.Prefix.t ->
  budget:int ->
  (string * Dbgp_types.Ipv4.t) option
(** Contact the portal; on success returns (path id, tunnel endpoint). *)
