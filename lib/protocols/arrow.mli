(** An Arrow-like custom protocol: guaranteed-QoS transit segments
    (Peter et al., SIGCOMM '14, "One Tunnel is (Often) Enough" —
    Table 1's "alt. paths + intra-island QoS").

    Participating islands sell {e segments}: tunneled transit through
    their island with a bandwidth guarantee.  Like MIRO, the service is
    discovered via island descriptors passed through gulfs; unlike MIRO,
    a customer can {e stitch} several islands' segments into one
    end-to-end path, encoded as nested tunnel headers (the "one tunnel"
    observation being that a single well-placed segment usually
    suffices). *)

val protocol : Dbgp_types.Protocol_id.t

val field_portal : string

val service : string

type segment = {
  ingress : Dbgp_types.Ipv4.t;   (** tunnel entry into the island *)
  egress : Dbgp_types.Ipv4.t;    (** where traffic re-emerges *)
  bandwidth : int;               (** guaranteed, in the island *)
}

type config = {
  my_island : Dbgp_types.Island_id.t;
  portal : Dbgp_types.Ipv4.t;
  guarantee : int;
  segment : segment;             (** what this island sells *)
}

type t

val create : config -> t
val advertise : t -> Dbgp_core.Ia.t -> Dbgp_core.Ia.t

val serve : t -> Dbgp_core.Value.t -> Dbgp_core.Value.t option
(** Portal handler.  Request: [Int min_bandwidth]; response: the segment
    as [Pair (Pair (ingress, egress), Int bandwidth)] when the guarantee
    suffices. *)

val sold : t -> int
(** Segments sold so far. *)

(** {1 Customer side} *)

type discovered = {
  island : Dbgp_types.Island_id.t;
  portal_addr : Dbgp_types.Ipv4.t;
  guarantee : int;
}

val discover : Dbgp_core.Ia.t -> discovered list

val buy :
  io:Portal_io.t ->
  portal:Dbgp_types.Ipv4.t ->
  min_bandwidth:int ->
  segment option
