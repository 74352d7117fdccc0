(** IPv4 addresses.

    The baseline address format of today's Internet and of our D-BGP
    deployment scenarios (Section 3 of the paper assumes IPv4 as the
    baseline).  Addresses are stored as unsigned 32-bit values in a native
    [int]. *)

type t = private int

val of_int : int -> t
(** @raise Invalid_argument if outside [\[0, 2^32-1\]]. *)

val to_int : t -> int

val of_octets : int -> int -> int -> int -> t
(** [of_octets a b c d] is the address [a.b.c.d].
    @raise Invalid_argument if any octet is outside [\[0, 255\]]. *)

val of_string : string -> t
(** Parses dotted-quad notation: four fields of one to three ASCII
    digits, each at most 255.  @raise Invalid_argument on bad input. *)

val of_string_opt : string -> t option
val to_string : t -> string
val pp : Format.formatter -> t -> unit
val compare : t -> t -> int
val equal : t -> t -> bool

val any : t
(** 0.0.0.0 *)
