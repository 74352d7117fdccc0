(** Autonomous-system numbers.

    D-BGP, like modern BGP (RFC 6793), uses 4-byte AS numbers throughout.
    Values are validated on construction: an ASN is an integer in
    [\[0, 2^32 - 1\]].  ASN 0 is reserved and never appears in a path
    vector; {!val:is_reserved} identifies it and the other IANA-reserved
    blocks so filters can reject bogus advertisements. *)

type t = private int

val of_int : int -> t
(** [of_int n] validates [n] as a 4-byte AS number.
    @raise Invalid_argument if [n] is outside [\[0, 2^32 - 1\]]. *)

val of_int_opt : int -> t option
(** Like {!of_int} but returns [None] instead of raising. *)

val to_int : t -> int

val zero : t
(** The reserved ASN 0 (used only as a sentinel, never on paths). *)

val is_reserved : t -> bool
(** [is_reserved a] is true for ASN 0, AS_TRANS (23456), the private-use
    ranges 64512-65534 and 4200000000-4294967294, and 65535 /
    4294967295. *)

val is_private : t -> bool
(** True only for the two private-use ranges. *)

val compare : t -> t -> int
val equal : t -> t -> bool
val hash : t -> int
val pp : Format.formatter -> t -> unit
val to_string : t -> string

val of_string : string -> t
(** Parses either plain ("65001") or asdot ("1.10") notation, in ASCII
    digits only: at most ten for a plain ASN, five per asdot half.
    @raise Invalid_argument on malformed input. *)

val of_string_opt : string -> t option

module Set : Set.S with type elt = t
module Map : Map.S with type key = t
