(** Append-only binary encoder.

    Replaces the protocol-buffer serialization the paper's Beagle prototype
    used.  A growable byte buffer with big-endian fixed-width writes,
    LEB128 varints, and length-delimited fields — enough to encode
    integrated advertisements compactly and deterministically. *)

type t

val create : ?capacity:int -> unit -> t
val length : t -> int
val contents : t -> string
val reset : t -> unit

val u8 : t -> int -> unit
(** @raise Invalid_argument outside [\[0, 255\]]. *)

val u16 : t -> int -> unit
(** Big-endian. @raise Invalid_argument outside [\[0, 65535\]]. *)

val u32 : t -> int -> unit
(** Big-endian. @raise Invalid_argument outside [\[0, 2^32-1\]]. *)

val varint : t -> int -> unit
(** Unsigned LEB128. @raise Invalid_argument if negative. *)

val bytes : t -> string -> unit
(** Raw bytes, no length prefix. *)

val delimited : t -> string -> unit
(** Varint length prefix followed by the bytes. *)

val ipv4 : t -> Dbgp_types.Ipv4.t -> unit
val prefix : t -> Dbgp_types.Prefix.t -> unit
(** Length byte then the minimal number of network-address octets, as in
    BGP NLRI encoding. *)

val asn : t -> Dbgp_types.Asn.t -> unit
(** Always 4 octets (RFC 6793 style). *)

val list : t -> (t -> 'a -> unit) -> 'a list -> unit
(** Varint count followed by each element, written in place. *)

(** {1 Sizes}

    The exact number of bytes the writer of the same name appends.  They
    read string lengths, never string contents, and allocate nothing, so
    a caller can size a frame before writing it (size-then-write) and
    allocate its output once. *)

val varint_size : int -> int
(** @raise Invalid_argument if negative, like {!varint}. *)

val delimited_size : string -> int
val prefix_size : Dbgp_types.Prefix.t -> int

val list_size : ('a -> int) -> 'a list -> int
(** [list_size size xs]: the varint count plus [size x] for each
    element. *)
