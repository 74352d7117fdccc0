(** Autonomous-system numbers.

    D-BGP, like modern BGP (RFC 6793), uses 4-byte AS numbers throughout.
    Values are validated on construction: an ASN is an integer in
    [\[0, 2^32 - 1\]].  ASN 0 is reserved and never appears in a path
    vector. *)

type t = private int

val of_int : int -> t
(** [of_int n] validates [n] as a 4-byte AS number.
    @raise Invalid_argument if [n] is outside [\[0, 2^32 - 1\]]. *)

val to_int : t -> int

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
