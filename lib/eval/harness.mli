(** Shared plumbing for building scenario topologies on the simulator. *)

val add_as :
  Dbgp_netsim.Network.t ->
  ?island:Dbgp_types.Island_id.t ->
  ?passthrough:bool ->
  int ->
  Dbgp_core.Speaker.t
(** Create a speaker for the AS number, register it, return it. *)

val relationship :
  Dbgp_topology.As_graph.view -> Dbgp_bgp.Policy.relationship
(** The session relationship toward a neighbor that a graph edge shows
    from this side. *)

val cust : Dbgp_netsim.Network.t -> int -> int -> unit
(** [cust net a b]: [a] is the customer of [b], so advertisements flow
    [a] -> [b]. *)

val forwarder : Dbgp_core.Speaker.t -> Dbgp_dataplane.Forwarder.t
(** A forwarder that follows the speaker's Loc-RIB: each selected route
    forwards to the AS it was learned from, or delivers locally when
    the speaker originates it. *)

val io_of : Dbgp_netsim.Network.t -> Dbgp_protocols.Portal_io.t
(** Portal access backed by the network's lookup service. *)
