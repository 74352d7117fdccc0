(** Integrated advertisements (Section 3.2, Figure 4).

    An IA extends a BGP advertisement into a shared container carrying
    multiple inter-domain routing protocols' control information for one
    path to one destination prefix:

    - the {b path vector} — AS numbers, island IDs, or AS_SETs — the
      common loop-avoidance denominator for every protocol on the path;
    - {b island membership} — which contiguous path-vector entries belong
      to which island, needed to layer multi-network-protocol headers;
    - {b path descriptors} — per-protocol attributes of the whole path
      (Wiser's cost, BGPSec's attestations, BGP's origin/next hop).  A
      descriptor names the set of protocols that {e share} it, which is
      how critical fixes share control information with BGP and each
      other to keep IAs small (Section 3.2, "Limiting IA sizes");
    - {b island descriptors} — attributes of individual islands on the
      path (a SCION island's within-island paths, a MIRO island's service
      portal, a Wiser island's cost-exchange portal). *)

type path_descriptor = {
  owners : Dbgp_types.Protocol_id.t list;
  (** The protocols sharing this field; never empty, sorted, unique. *)
  field : string;
  value : Value.t;
}

type island_descriptor = {
  island : Dbgp_types.Island_id.t;
  proto : Dbgp_types.Protocol_id.t;
  ifield : string;
  ivalue : Value.t;
}

type t = {
  prefix : Dbgp_types.Prefix.t;            (** baseline-format destination *)
  path_vector : Dbgp_types.Path_elem.t list;  (** this AS last prepended first *)
  membership : (Dbgp_types.Island_id.t * Dbgp_types.Asn.t list) list;
  (** Islands that list member ASes in the path vector declare which ASes
      are theirs; islands listed by ID need no entry. *)
  path_descriptors : path_descriptor list;
  island_descriptors : island_descriptor list;
}

(** {1 Well-known shared fields}

    BGP's own control information rides in path descriptors so that the
    sharing machinery is uniform. *)

val field_next_hop : string
val field_origin : string
val field_med : string

val originate :
  prefix:Dbgp_types.Prefix.t ->
  origin_asn:Dbgp_types.Asn.t ->
  next_hop:Dbgp_types.Ipv4.t ->
  unit ->
  t
(** A fresh IA as created by the destination AS: path vector [[origin]],
    BGP next-hop/origin descriptors, nothing else. *)

(** {1 Path vector} *)

val prepend_as : Dbgp_types.Asn.t -> t -> t
val prepend_island : Dbgp_types.Island_id.t -> t -> t
val has_loop : t -> bool
val path_length : t -> int

val asns_on_path : t -> Dbgp_types.Asn.t list
val islands_on_path : t -> Dbgp_types.Island_id.t list
(** Islands appearing either as path-vector entries or in membership
    declarations, in path order. *)

val abstract_island :
  island:Dbgp_types.Island_id.t -> members:Dbgp_types.Asn.t list -> t -> t
(** The egress-filter operation for islands that hide their interior:
    replaces the leading run of member ASes in the path vector with the
    single island ID (Section 3.3, global export filters). *)

val declare_membership :
  island:Dbgp_types.Island_id.t -> members:Dbgp_types.Asn.t list -> t -> t
(** The alternative egress operation: keep member ASes listed but record
    which island they belong to. *)

val island_of_asn : t -> Dbgp_types.Asn.t -> Dbgp_types.Island_id.t option

(** {1 Descriptors} *)

val set_path_descriptor :
  owners:Dbgp_types.Protocol_id.t list -> field:string -> Value.t -> t -> t
(** Adds or replaces, maintaining the invariant that each (protocol,
    field) pair resolves to at most one descriptor: the named owners are
    re-pointed at the new value; any other protocol sharing an old
    same-field descriptor keeps the old value under a narrowed owner
    set. *)

val find_path_descriptor :
  proto:Dbgp_types.Protocol_id.t -> field:string -> t -> Value.t option

val remove_protocol : Dbgp_types.Protocol_id.t -> t -> t
(** Removes the protocol from every descriptor it owns; descriptors left
    ownerless disappear, island descriptors of that protocol disappear.
    Used by gulf operators filtering problematic protocols and by the
    no-pass-through (plain BGP) baseline. *)

val add_island_descriptor :
  island:Dbgp_types.Island_id.t ->
  proto:Dbgp_types.Protocol_id.t ->
  field:string ->
  Value.t ->
  t ->
  t

val find_island_descriptors :
  proto:Dbgp_types.Protocol_id.t -> t -> island_descriptor list

val find_island_descriptor :
  island:Dbgp_types.Island_id.t ->
  proto:Dbgp_types.Protocol_id.t ->
  field:string ->
  t ->
  Value.t option

val protocols : t -> Dbgp_types.Protocol_id.Set.t
(** Every protocol with control information in this IA (G-R4: informing
    islands and gulf ASes what protocols are used on the path). *)

(** {1 BGP shared-field helpers} *)

val next_hop : t -> Dbgp_types.Ipv4.t option
val with_next_hop : Dbgp_types.Ipv4.t -> t -> t

val equal : t -> t -> bool

val same_attrs : t -> t -> bool
(** Equality of everything {e except} the prefix — path vector,
    membership, descriptors.  Physical per-field fast paths first (routes
    held by the attribute table point at their set's canonical fields,
    so sharing is the common case), structural fallback second.  This is
    the relation {!Attr_table} identifies sets by, and the bucketing
    relation for multi-prefix batched updates: routes with [same_attrs]
    can share one wire attribute block. *)

val attrs_hash : t -> int
(** Hash of the attribute set, consistent with {!same_attrs}: the key
    of every table that buckets or shares attribute sets.  It never
    reads descriptor payload bytes (see {!Value.hash}) and looks at a
    bounded prefix of each list, so it is O(1) on any IA; attribute sets
    it cannot tell apart cost their table a structural compare. *)

val with_prefix : Dbgp_types.Prefix.t -> t -> t
(** [t] re-pointed at [prefix]; the attribute fields are physically
    shared with [t] (and [t] itself is returned when the prefix already
    matches).  The decode side of batched frames fans one decoded
    attribute block out to every NLRI entry with this. *)

val pp : Format.formatter -> t -> unit
