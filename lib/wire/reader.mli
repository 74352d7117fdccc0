(** Binary decoder matching {!Writer}.

    Decoding a malformed buffer raises {!Error} with a human-readable
    reason; D-BGP speakers translate this into dropping the advertisement
    (as BGP treats an unparseable UPDATE). *)

exception Error of string

type t

val of_string : string -> t
val pos : t -> int
val remaining : t -> int
val at_end : t -> bool

val u8 : t -> int
val u16 : t -> int
val u32 : t -> int
val varint : t -> int
(** Canonical LEB128.  Rejects encodings longer than 9 bytes, 9-byte
    encodings whose payload exceeds [max_int] (they would wrap into the
    sign bit), and non-canonical trailing-zero continuations such as
    [0x80 0x00]. *)

val bytes : t -> int -> string
val delimited : t -> string

val source : t -> string
(** The whole string the reader reads from, shared by every {!frame}
    over it.  Offsets from {!delimited_span} index it. *)

val delimited_span : t -> int * int
(** Reads what {!delimited} reads, with the same checks and errors, but
    copies nothing: returns [(off, n)], the field's [n] bytes starting at
    [off] in {!source}. *)

val frame : t -> t
(** Reads a varint length [n] and returns a reader over the next [n]
    bytes, advancing past them; nothing is copied.  The sub-reader is
    bounded by the frame: {!remaining} and {!at_end} count to its end,
    and a read past it raises {!Error} instead of reaching the bytes
    that follow.  {!pos} counts from the frame's start.
    @raise Error if the frame is longer than what remains. *)

val ipv4 : t -> Dbgp_types.Ipv4.t
val prefix : t -> Dbgp_types.Prefix.t
(** Rejects non-canonical encodings with stray host bits inside the last
    octet, keeping decode∘encode byte-level idempotent. *)

val asn : t -> Dbgp_types.Asn.t

val list : ?min_width:int -> t -> (t -> 'a) -> 'a list
(** [min_width] (default 1, must be positive) is a lower bound on one
    element's encoded size; the element count is validated against
    [remaining / min_width] before any allocation happens. *)
