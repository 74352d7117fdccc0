(** BGPv4 path attributes (RFC 4271, with 4-byte AS paths per RFC 6793).

    The baseline protocol's control information.  D-BGP's integrated
    advertisements embed these as the "shared" fields that BGP and its
    critical fixes have in common (Section 3.2: origin, next hop, and the
    path vector are listed once for Wiser, BGP and BGPSec).

    Unknown optional-transitive attributes are preserved verbatim —
    BGP's own limited pass-through mechanism, which Section 2.6 contrasts
    with D-BGP's systematized support. *)

type origin = Igp | Egp | Incomplete

type segment =
  | Seq of Dbgp_types.Asn.t list  (** AS_SEQUENCE: ordered *)
  | Set of Dbgp_types.Asn.t list  (** AS_SET: unordered, from aggregation *)

type as_path = segment list

type community = int
(** 32-bit community value, conventionally [asn:value]. *)

(** A raw attribute we do not interpret; [transitive] controls whether it
    propagates through speakers that don't recognize it. *)
type unknown = { type_code : int; transitive : bool; body : string }

type t = {
  origin : origin;
  as_path : as_path;
  next_hop : Dbgp_types.Ipv4.t;
  med : int option;               (** MULTI_EXIT_DISC *)
  local_pref : int option;        (** set on import policy; iBGP scope *)
  atomic_aggregate : bool;
  aggregator : (Dbgp_types.Asn.t * Dbgp_types.Ipv4.t) option;
  communities : community list;
  unknowns : unknown list;        (** optional attributes passed through *)
}

val make :
  ?origin:origin ->
  ?med:int ->
  ?local_pref:int ->
  ?atomic_aggregate:bool ->
  ?aggregator:Dbgp_types.Asn.t * Dbgp_types.Ipv4.t ->
  ?communities:community list ->
  ?unknowns:unknown list ->
  as_path:as_path ->
  next_hop:Dbgp_types.Ipv4.t ->
  unit ->
  t

val community : asn:int -> value:int -> community

val as_path_length : as_path -> int
(** AS_SET segments count as one hop (RFC 4271 section 9.1.2.2 a). *)

val as_path_asns : as_path -> Dbgp_types.Asn.t list
(** Every ASN mentioned, in order of appearance. *)

val as_path_contains : Dbgp_types.Asn.t -> as_path -> bool
(** The loop-detection test. *)

val prepend : Dbgp_types.Asn.t -> as_path -> as_path
(** Prepend an ASN, merging into a leading AS_SEQUENCE if present. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
val encode : Dbgp_wire.Writer.t -> t -> unit
val decode : Dbgp_wire.Reader.t -> t
(** @raise Dbgp_wire.Reader.Error on malformed input. *)
