(** Whole-network packet forwarding.

    Executes a packet's header stack across per-AS {!Forwarder}s:
    hop-based IPv4 forwarding, pathlet FID forwarding, SCION-style path
    forwarding, and tunnel decapsulation — including transitions between
    them at island borders (encapsulation is the sender's/border's job;
    the engine processes whatever stack it is given).  Loops are bounded
    by the packet TTL. *)

type t

type outcome =
  | Delivered of { at : Dbgp_types.Asn.t; path : Dbgp_types.Asn.t list }
      (** [path] includes source and destination ASes, in travel order. *)
  | Dropped of { at : Dbgp_types.Asn.t; reason : string }

val create : unit -> t
val add : t -> Forwarder.t -> unit

val route : t -> from:Dbgp_types.Asn.t -> Packet.t -> outcome
val pp_outcome : Format.formatter -> outcome -> unit
