(** Wire codec for integrated advertisements.

    Replaces Beagle's protocol-buffer serialization.  The encoding is
    sharing-aware: a path descriptor owned by several protocols is
    written once with its owner list, which is what makes many critical
    fixes nearly free to carry (the "+ Sharing" row of Table 3). *)

val encode : Ia.t -> string
(** Path and island descriptors are individually length-framed, so a
    decoder can skip a malformed descriptor without losing sync with the
    rest of the advertisement (the RFC 7606 [Discard_attribute] path). *)

val decode : string -> Ia.t
(** Strict decode: any malformation — including a malformed descriptor
    body or trailing bytes — raises.
    @raise Dbgp_wire.Reader.Error on malformed input. *)

val decode_robust : string -> (Ia.t * Errors.t list, Errors.t) result
(** RFC 7606-style salvaging decode.  [Ok (ia, discarded)] when the
    route survives: [discarded] lists the individually-framed
    descriptors that were malformed and dropped ([Discard_attribute]
    errors, possibly none).  [Error e] when it does not: [e.cls] is
    [Treat_as_withdraw] when the prefix decoded but the structure around
    it (path vector, membership, list framing, trailing bytes) did not,
    and [Session_reset] when even the prefix is unrecoverable.  Never
    raises.

    Byte-identical wires that previously decoded cleanly are answered
    from a bounded decode memo (see [wire.decode_memo.*] in
    {!wire_metrics}); malformed or salvaged wires are never memoized, so
    error accounting replays on every delivery. *)

val size : Ia.t -> int
(** Exact encoded size in bytes, [String.length (encode ia)], computed
    from lengths without encoding: it reads no descriptor payload and
    allocates nothing.  {!encode} allocates its output at this size. *)

val encode_withdraw : Dbgp_types.Prefix.t -> string
(** Wire format of a Withdraw message: just the withdrawn prefix. *)

val withdraw_size : Dbgp_types.Prefix.t -> int
(** [String.length (encode_withdraw p)], computed without encoding. *)

(** {1 Batched frames}

    Many NLRI prefixes sharing one attribute block, as real BGP packs an
    UPDATE: [varint count; count × delimited NLRI entry; delimited
    attribute block] for announces, [varint count; count × delimited
    prefix] for withdraws.  A one-prefix {!frame} keeps the
    single-prefix layout ({!encode} / {!encode_withdraw}); these layouts
    carry two or more. *)

val encode_batch : Ia.t list -> string
(** One frame for the whole batch.  The attribute block is taken from
    the head; callers must only batch IAs related by {!Ia.same_attrs}
    (the network layer's bucketing guarantees this).
    @raise Invalid_argument on an empty batch. *)

(** Decoded batch, after salvage. *)
type batch =
  | Batch_routes of Ia.t list * Errors.t list
      (** The surviving routes — every IA physically shares one decoded
          attribute set — plus per-entry/per-descriptor
          [Discard_attribute] errors.  An NLRI entry whose prefix is
          malformed inside an intact outer frame is discarded alone. *)
  | Batch_withdraw of Dbgp_types.Prefix.t list * Errors.t
      (** The attribute block was unreadable (or trailing bytes
          followed it): RFC 7606 treat-as-withdraw applied to every
          salvaged prefix of the batch. *)

val decode_batch_robust : string -> (batch, Errors.t) result
(** Salvaging decode of a batched announce frame.  [Error e] (with
    [e.cls = Session_reset]) only when the NLRI count or an entry's
    outer frame is unreadable — the decoder has lost sync with the
    message.  Never raises. *)

val encode_withdraw_batch : Dbgp_types.Prefix.t list -> string
(** @raise Invalid_argument on an empty batch. *)

val decode_withdraw_batch_robust :
  string -> (Dbgp_types.Prefix.t list * Errors.t list, Errors.t) result
(** Salvaging decode of a batched withdraw frame: malformed entries are
    discarded alone ([Discard_attribute] in the error list), framing
    loss is [Error] with [Session_reset].  Never raises. *)

(** {1 Frames}

    The unit the network delivers: every message crosses the simulated
    wire as one frame of bytes. *)

type frame =
  | Routes of Ia.t list
      (** One or more announces sharing one attribute set
          ({!Ia.same_attrs}); the attribute block is the head's. *)
  | Withdraws of Dbgp_types.Prefix.t list  (** One or more prefixes. *)

(** The four wire layouts a frame can take. *)
type layout =
  | Announce        (** {!encode}: one prefix and its attributes *)
  | Withdraw        (** {!encode_withdraw}: one prefix *)
  | Announce_batch  (** {!encode_batch} *)
  | Withdraw_batch  (** {!encode_withdraw_batch} *)

val layout : frame -> layout
(** A one-prefix frame takes the single-prefix layout, two or more
    prefixes the batch layout. *)

val encode_frame : frame -> string
(** The frame's bytes in its {!layout}: a one-prefix frame is
    byte-identical to {!encode} (served from {!encode_cached}) or
    {!encode_withdraw}, so a lone update pays no batch framing.
    @raise Invalid_argument on an empty frame. *)

(** A decoded frame, after salvage. *)
type decoded = {
  routes : Ia.t list;  (** routes to ingest *)
  withdrawn : Dbgp_types.Prefix.t list;  (** prefixes to withdraw *)
  errors : Errors.t list;  (** verdicts to record, in order *)
}

val decode_frame : layout -> string -> decoded
(** RFC 7606-style salvaging decode of any layout.  Per-descriptor and
    per-entry damage is discarded alone ([Discard_attribute] errors
    next to the surviving routes).  Damage around a readable prefix —
    the structure of a single announce, a batch's attribute block — or
    a missing BGP next hop turns the frame's routes into withdraws with
    one [Treat_as_withdraw] error.  Lost framing salvages nothing and
    carries one [Session_reset] error.  Never raises. *)

(** {1 Encode-once wire sharing}

    One distinct (physical) IA encodes once; every fan-out delivery
    shares the same immutable wire string.  Both caches are
    direct-mapped and bounded by construction: a slot collision
    overwrites and merely costs a later re-encode/re-decode. *)

val encode_cached : Ia.t -> string
(** Same bytes as {!encode}; served from an identity-keyed cache.  The
    export cache hands every peer-group member the same physical
    outgoing IA, so this is effectively one encode per (IA, peer
    group). *)

val wire_metrics : unit -> Dbgp_obs.Metrics.t
(** The calling domain's wire registry, holding
    [wire.encode_cache.hits]/[.misses] and
    [wire.decode_memo.hits]/[.misses].  Domain-local: each simulation
    domain accumulates into its own registry; a sharded run folds them
    together with {!Dbgp_obs.Metrics.merge_into}. *)

val wire_metrics_reset : unit -> unit
(** Zero the calling domain's wire registry and drop its encode cache
    and decode memo.  Test suites sharing the process-lifetime wire
    state call this in their setup so counts from earlier suites cannot
    bleed into their assertions. *)

val value_intern_stats : unit -> Dbgp_types.Intern.stats
(** Interning statistics for decoded descriptor values (calling
    domain's table). *)

(** Probes of the decode memo, for the tests that bound it under fuzz
    input, and of the value table. *)
module For_tests : sig
  val decode_memo_capacity : int
  (** Hard slot bound of the decode memo — residency can never exceed
      this regardless of input. *)

  val decode_memo_residency : unit -> int
  (** Occupied decode-memo slots. *)

  val value_table_clear : unit -> unit
  (** Empty the calling domain's table of decoded descriptor values, so
      the next decode holds no value it could match in place. *)
end

val encode_compressed : Ia.t -> string
(** LZSS-compressed encoding (Section 3.2: "IAs can be compressed to
    further reduce their size").  Worth it for IAs with repetitive
    descriptors; {!compressed_size} reports the effect. *)

val decode_compressed : string -> Ia.t
(** @raise Invalid_argument or @raise Dbgp_wire.Reader.Error on
    malformed input. *)

val compressed_size : Ia.t -> int

(** Byte-level attribution of an IA's encoded size, for the control-plane
    overhead analysis (Section 6.2). *)
type breakdown = {
  base : int;               (** prefix + path vector + membership *)
  critical_fix : int;       (** path descriptors owned by critical fixes *)
  custom_replacement : int; (** island descriptors + custom/replacement info *)
  shared_savings : int;     (** bytes saved versus duplicating each shared
                                descriptor per owner *)
}

val breakdown : Ia.t -> breakdown
