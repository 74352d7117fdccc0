(** Hashtables keyed by int, hashed arithmetically rather than through
    the polymorphic hash.  The hash does not depend on
    [OCAMLRUNPARAM=R]. *)

val hash : int -> int
(** Multiplies by a 64-bit odd constant and folds the product's high
    half, which depends on every key bit, onto the low half the bucket
    index reads.  {!Prefix.Tbl} uses it too. *)

include Hashtbl.S with type key = int
