(** Protocol identifiers and the governing-body registry.

    Section 3.1 assumes every inter-domain routing protocol is assigned a
    unique ID by a governing body (IETF/ARIN).  We model the registry
    directly: a protocol ID is an integer paired with a registered name and
    a {!kind} recording which evolvability scenario (Section 2) the
    protocol belongs to.  Registration is process-global and idempotent by
    name. *)

type kind =
  | Baseline     (** The baseline protocol itself (BGP today). *)
  | Critical_fix (** Extends the baseline's path selection (Section 2.2). *)
  | Custom       (** Runs in parallel with the baseline (Section 2.3). *)
  | Replacement  (** Replaces the baseline within islands (Section 2.4). *)

type t

val register : ?kind:kind -> string -> t
(** [register name] returns the ID registered for [name], creating it if
    needed.  Re-registration with a different [kind] raises
    [Invalid_argument] — the governing body does not re-classify
    protocols. *)

val find : string -> t option
val name : t -> string
val kind : t -> kind
val to_int : t -> int
val of_int : int -> t option
(** Look an ID up by its registry number. *)

val compare : t -> t -> int
(** By {e name}, not registry number: decoding can lazily register
    never-seen protocol names from any simulation domain, so id
    allocation order depends on domain scheduling and must never be
    observable.  {!equal} and {!hash} agree with this order. *)

val equal : t -> t -> bool
val hash : t -> int
val pp : Format.formatter -> t -> unit
val all : unit -> t list
(** Every protocol registered so far, in name order. *)

(** {1 Well-known protocols}

    The protocols analyzed in Table 1 of the paper, pre-registered. *)

val bgp : t
val bgpsec : t
val eq_bgp : t
val lisp : t
val r_bgp : t
val wiser : t
val miro : t
val arrow : t
val ron : t
val nira : t
val scion : t
val pathlet : t
val yamr : t
val hlp : t

module Set : Set.S with type elt = t
module Map : Map.S with type key = t
