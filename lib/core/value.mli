(** Typed values carried in IA descriptors.

    Every protocol encodes its control information as values of this
    small structural type, so the IA factory, filters, and the wire codec
    can carry, copy and measure information for protocols they do not
    understand — the essence of pass-through support. *)

type t =
  | Int of int              (** non-negative integer (costs, bandwidths, IDs) *)
  | Str of string           (** text (names, negotiation hints) *)
  | Bytes of string         (** opaque binary (signatures, attestations) *)
  | Addr of Dbgp_types.Ipv4.t   (** portal / gateway addresses *)
  | Pfx of Dbgp_types.Prefix.t
  | Asn of Dbgp_types.Asn.t
  | List of t list          (** paths, pathlets, alternatives *)
  | Pair of t * t

val int : int -> t
val bytes : string -> t
val addr : Dbgp_types.Ipv4.t -> t
val pair : t -> t -> t
val list : t list -> t

val as_int : t -> int option
val as_str : t -> string option
val as_addr : t -> Dbgp_types.Ipv4.t option
val as_asn : t -> Dbgp_types.Asn.t option

val equal : t -> t -> bool
val compare : t -> t -> int
val pp : Format.formatter -> t -> unit

val encode : Dbgp_wire.Writer.t -> t -> unit
val decode : Dbgp_wire.Reader.t -> t
(** @raise Dbgp_wire.Reader.Error on malformed input. *)

val wire_size : t -> int
(** Exact encoded size in bytes: what {!encode} writes.  Reads string
    lengths, never their bytes, and allocates nothing — the codec sizes
    every frame with it before writing. *)

(** {1 Payload-blind hashing}

    Consistent with {!equal}, and O(1) in the size of the value: a long
    string contributes its length and a bounded sample of its bytes, and
    nesting is walked to a bounded depth and breadth.  Values that
    differ only where the hash does not look collide; tables keyed by
    this hash resolve that with a structural compare. *)

val hash : t -> int

val hash_fold : int -> t -> int
(** Mixes a value into an unfinished accumulator, so composite keys
    (attribute sets) can fold many values and {!finish} once. *)

val mix : int -> int -> int
(** Mixes an immediate into an unfinished accumulator. *)

val finish : int -> int
(** Spreads an accumulator into a hash for bucket and slot indices. *)

val string_hash : string -> int
(** The bounded string hash {!hash} uses for [Str] and [Bytes]. *)

(** {1 Decoding against held values} *)

module Decode_into (T : Dbgp_types.Intern.S with type value = t) : sig
  val decode : T.t -> Dbgp_wire.Reader.t -> t
  (** Decodes like {!decode}, with the same errors, and returns the
      decoded value's representative in the table.  A top-level [Str] or
      [Bytes] longer than 32 bytes is not copied to ask: it probes the
      table with {!T.find_or_intern}, under {!hash} of the value and a
      predicate that compares held values in place against the reader's
      {!Dbgp_wire.Reader.source}, and is copied out only on a miss.  Any
      other value decodes as {!decode} does and goes to {!T.intern}.
      The table must hash with {!hash} and compare with {!equal}. *)
end
