(** Transporting IAs over legacy BGP-4 (Section 3.5, "Deployment of
    D-BGP itself", and Section 7's observation that optional transitive
    attributes are BGP's existing pass-through mechanism).

    During the transitional phase, D-BGP speakers peer with legacy BGP-4
    routers.  This module maps an integrated advertisement onto a plain
    BGP UPDATE: the baseline information becomes ordinary path
    attributes, and everything D-BGP adds — island membership, path and
    island descriptors — rides in a single {e optional transitive}
    attribute (type code 0xDB).  Legacy routers that do not understand
    the attribute propagate it untouched (RFC 4271 semantics), which is
    exactly how 4-byte AS numbers were deployed; routers that have been
    configured to scrub unknown attributes degrade the IA to plain BGP,
    matching {!Speaker}'s capability-based downgrade. *)

val attr_type_code : int
(** 0xDB — the optional transitive attribute carrying D-BGP extras. *)

val to_update : Ia.t -> Dbgp_bgp.Message.update
(** Encode.  The AS path keeps only AS-number entries (island IDs cannot
    be expressed in a legacy AS_PATH; their full fidelity lives in the
    extras attribute, from which {!of_update} restores them). *)

val of_update : Dbgp_bgp.Message.update -> Ia.t option
(** Decode.  With the extras attribute present, the original IA is
    reconstructed exactly; without it (scrubbed or never attached), a
    plain-BGP IA is synthesized from the standard attributes.  [None]
    for withdraw-only updates or updates without NLRI. *)

(** {1 Two-byte peers}

    Section 3.5: during transition, D-BGP "could translate between
    D-BGP's path vector and BGP's path vector (which only allows 2 bytes
    per entry) using techniques similar to how 4-byte-per-entry path
    vectors are being deployed today" — i.e. RFC 6793's AS_TRANS
    mechanism. *)

val to_update_two_byte : Ia.t -> Dbgp_bgp.Message.update
(** Like {!to_update}, but the legacy AS_PATH is 2-byte-safe: oversized
    ASNs appear as AS_TRANS (ASN 23456) while the true 4-byte path rides
    in the extras attribute (the AS4_PATH role). *)
