(** A BGPSec-like critical fix: attested path announcements.

    Each participating AS appends a keyed attestation over (prefix,
    itself, the path it received); a verifier holding the key registry
    can check the chain hop by hop.  Because real BGPSec requires an
    unbroken chain of participation starting at the destination, D-BGP
    cannot accelerate its incremental benefits (Section 3.5) — but IAs
    still carry attestations across gulfs, and islands can optionally
    drop them before insecure neighbors (Section 3.2).

    Cryptography is replaced by a keyed 64-bit FNV-1a MAC: the point of
    this module is the control-plane mechanics (what is signed, where
    attestations ride in IAs, how chains break at gulfs), not
    cryptographic strength. *)

val protocol : Dbgp_types.Protocol_id.t

type attestation = { signer : Dbgp_types.Asn.t; mac : string }

type pki = Dbgp_types.Asn.t -> string option
(** Key lookup — the stand-in for the RPKI. *)

val sign_origin :
  secret:string -> me:Dbgp_types.Asn.t -> Dbgp_core.Ia.t -> Dbgp_core.Ia.t
(** Attach the destination's own attestation at origination time. *)

val attestations : Dbgp_core.Ia.t -> attestation list

(** Chain status, judged against the full path vector. *)
type status =
  | Full                              (** every AS on the path attested *)
  | Partial of Dbgp_types.Asn.t list  (** verified chain, but these ASes
                                          did not participate *)
  | Broken of Dbgp_types.Asn.t       (** this AS's attestation fails *)

val verify : pki:pki -> Dbgp_core.Ia.t -> status
(** Island path-vector entries are treated as non-participating (their
    interior is not attestable from outside). *)

type config = {
  me : Dbgp_types.Asn.t;
  secret : string;
  pki : pki;
  require_full : bool;
  (** true: reject candidates without a full chain (secure-island
      interior behaviour); false: prefer better-attested paths but accept
      any (border behaviour). *)
  authorized : (Dbgp_types.Prefix.t -> Dbgp_types.Asn.t -> bool) option;
  (** ROA-style route-origin authorization — [authorized prefix asn] says
      whether [asn] may originate [prefix].  Attestation chains alone
      cannot stop an origin hijack (the hijacker signs the victim's
      prefix with its own valid key and verifies [Full]); with this set,
      the import filter rejects any candidate whose claimed origin — the
      far end of the path vector — is not authorized for the announced
      prefix, covering sub-prefix hijacks too.  [None] disables the
      check. *)
}

val origin_asn : Dbgp_core.Ia.t -> Dbgp_types.Asn.t option
(** The claimed origin: the far end of the path vector ([None] for an
    empty path or one ending in an island abstraction). *)

val decision_module : config -> Dbgp_core.Decision_module.t
val drop_attestations : Dbgp_core.Filters.t
(** Export filter for islands that strip attestations toward insecure
    neighbors. *)
