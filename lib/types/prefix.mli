(** IPv4 prefixes (CIDR blocks).

    The destination key of every advertisement — BGP UPDATEs and D-BGP
    integrated advertisements alike name destinations with a baseline-format
    prefix.  Prefixes are canonical on construction: host bits below the
    mask are zeroed, so structural equality coincides with semantic
    equality. *)

type t

val make : Ipv4.t -> int -> t
(** [make addr len] is the prefix [addr/len], canonicalized.
    @raise Invalid_argument if [len] is outside [\[0, 32\]]. *)

val network : t -> Ipv4.t
val length : t -> int

val of_string : string -> t
(** Parses ["a.b.c.d/len"]; a bare address parses as a /32.  Every
    field is plain decimal: one to three ASCII digits per octet, one or
    two for the length.
    @raise Invalid_argument on malformed input. *)

val of_string_opt : string -> t option
val to_string : t -> string

val to_int : t -> int
(** The packed form, [network lsl 6 lor length]: 38 bits, and ordered
    exactly as {!compare} orders prefixes.  Trace events carry prefixes
    this way. *)

val pp : Format.formatter -> t -> unit

val mem : Ipv4.t -> t -> bool
(** [mem addr p] is true iff [addr] falls inside [p]. *)

val subsumes : t -> t -> bool
(** [subsumes p q] is true iff every address of [q] is inside [p]
    (i.e. [p] is a less- or equally-specific covering prefix). *)

val bit : t -> int -> bool
(** [bit p i] is the [i]-th most significant bit of the network address,
    [0 <= i < length p]. *)

val compare : t -> t -> int
val equal : t -> t -> bool
val hash : t -> int

val default : t
(** 0.0.0.0/0 *)

val sort : t array -> unit
(** Sort in place, ascending by {!compare}: in linear time (a radix sort
    of the packed keys) from 1,024 prefixes up, by comparison below. *)

val split : t -> (t * t) option
(** [split p] is the two /\(len+1\) halves of [p], or [None] if [p] is a
    /32. *)

module Set : Set.S with type elt = t
module Map : Map.S with type key = t

module Tbl : Hashtbl.S with type key = t
(** Hashtables keyed by prefix.  The hash mixes every bit of the packed
    key into the bucket index, so prefixes of one length that differ
    only in high network bits still spread; it does not depend on
    [OCAMLRUNPARAM=R].  Iteration order is a function of the table's
    history, not of prefix order. *)
