(** A RON-like resilient overlay (Andersen et al., SOSP '01 — Table 1's
    "creates low-latency paths").

    Overlay nodes probe each other and route application traffic via a
    one-hop detour when it beats the direct Internet path — the classic
    overlay workaround for BGP's rigidity the paper's introduction
    contrasts with in-band evolvability.  Discovery of overlay members
    across gulfs rides, like every custom protocol here, in island
    descriptors. *)

val protocol : Dbgp_types.Protocol_id.t

type t

val create : unit -> t

val observe :
  t -> Dbgp_types.Ipv4.t -> Dbgp_types.Ipv4.t -> latency_ms:float -> unit
(** Record a (directed) probe result; later observations replace earlier
    ones.  @raise Invalid_argument on negative latency. *)

val nodes : t -> Dbgp_types.Ipv4.t list

type route =
  | Direct of float                      (** latency of the direct path *)
  | Via of Dbgp_types.Ipv4.t * float     (** one-hop detour and its total *)

val best_route :
  t -> src:Dbgp_types.Ipv4.t -> dst:Dbgp_types.Ipv4.t -> route option
(** The better of the direct path and the best one-hop detour through a
    probed overlay node; [None] when nothing has been probed. *)

val advertise :
  island:Dbgp_types.Island_id.t -> node:Dbgp_types.Ipv4.t ->
  Dbgp_core.Ia.t -> Dbgp_core.Ia.t

val discover : Dbgp_core.Ia.t -> (Dbgp_types.Island_id.t * Dbgp_types.Ipv4.t) list
