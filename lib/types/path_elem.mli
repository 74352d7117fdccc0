(** Elements of the D-BGP path vector.

    The path vector is the common denominator all protocols use for loop
    avoidance (Section 3.2).  An entry is either an AS number, an island ID
    (for islands that abstract away their interior), or an AS_SET — the
    unordered set BGP uses when aggregating, which islands can also use to
    expose member ASes without inflating the path length. *)

type t =
  | As of Asn.t
  | Island of Island_id.t
  | As_set of Asn.t list  (** Sorted, duplicate-free; counts as length 1. *)

val island : Island_id.t -> t

val as_set : Asn.t list -> t
(** Canonicalizes: sorts and deduplicates. *)

val mentions_asn : Asn.t -> t -> bool
(** Does this element contain the given AS number (directly or in a set)? *)

val compare : t -> t -> int
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
val to_string : t -> string

val path_length : t list -> int
(** BGP-style path length: an AS_SET counts as one hop. *)

val has_loop : t list -> bool
(** True iff some AS number or island ID appears twice (AS_SET members
    included) — the loop-detection rule shared by every protocol carried in
    an IA (requirement G-R5). *)

val pp_path : Format.formatter -> t list -> unit
