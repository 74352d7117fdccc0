(** Pathlet Routing deployed over D-BGP (replacement protocol; Godfrey
    et al., SIGCOMM '09).

    Islands expose within-island path fragments — {e pathlets} — named
    by forwarding IDs (FIDs).  Other islands combine them into larger
    pathlets or end-to-end paths, and sources pick routes by encoding
    FID sequences in packet headers (Sections 2.4 and 4).

    Within an island, the protocol's native advertisement carries a
    single pathlet.  At island borders, translation modules map between
    that format and IAs whose island descriptors carry many pathlets
    (Section 6.1: the paper's gulf support needed exactly this
    redistribution + translation machinery). *)

val protocol : Dbgp_types.Protocol_id.t

type hop =
  | Router of string                 (** a (border) router identifier *)
  | Deliver of Dbgp_types.Prefix.t   (** terminal delivery to a prefix *)

type pathlet = { fid : int; hops : hop list }
(** [hops] is non-empty; [Deliver] may only appear last. *)

val make : fid:int -> hop list -> pathlet
(** @raise Invalid_argument on an empty hop list or a non-terminal
    [Deliver]. *)

val entry : pathlet -> hop

val compose : fid:int -> pathlet -> pathlet -> pathlet
(** [compose ~fid a b] joins [a] and [b] where [a] exits at [b]'s entry
    router.  @raise Invalid_argument if they do not connect. *)

val pp : Format.formatter -> pathlet -> unit
val equal : pathlet -> pathlet -> bool

(** {1 Pathlet store}

    Each participating router/AS keeps the pathlets it has learned. *)

module Store : sig
  type t

  val create : unit -> t
  val add : t -> pathlet -> unit
  (** Replaces any pathlet with the same FID. *)

  val find : t -> fid:int -> pathlet option
  val all : t -> pathlet list
  val size : t -> int

  val routes_to :
    t -> from:string -> dest:Dbgp_types.Prefix.t -> pathlet list list
  (** Every loop-free FID sequence starting at router [from] whose last
      pathlet delivers to [dest]. *)
end

(** {1 D-BGP integration} *)

val attach :
  island:Dbgp_types.Island_id.t -> pathlet list -> Dbgp_core.Ia.t -> Dbgp_core.Ia.t
(** Record the island's exported pathlets in the IA. *)

val extract : Dbgp_core.Ia.t -> (Dbgp_types.Island_id.t * pathlet list) list
(** All pathlets advertised by any island in the IA. *)

val decision_module :
  island:Dbgp_types.Island_id.t ->
  exported:(unit -> pathlet list) ->
  Dbgp_core.Decision_module.t
(** The border decision module: inter-island selection falls back to
    BGP's shortest-path rule (the single-best-path limitation of
    Section 3.5); [exported] supplies the pathlets this island currently
    exports, attached on contribution. *)

val translation :
  island:Dbgp_types.Island_id.t ->
  origin_asn:Dbgp_types.Asn.t ->
  next_hop:Dbgp_types.Ipv4.t ->
  pathlet list Dbgp_core.Translation.t
(** Ingress: harvest pathlets from an IA.  Egress: attach the island's
    pathlets.  Redistribute: a plain-BGP IA for any prefix one of the
    pathlets delivers to, preserving basic connectivity for gulf ASes. *)
