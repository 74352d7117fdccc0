(** The compromised-AS layer: adversarial routing semantics.

    Any simulated speaker can be assigned an attack behavior — the
    classic BGP attack classes (prefix hijacks in their origin-forgery,
    sub-prefix and forged-AS-path variants; valley-free route leaks) plus
    the D-BGP-specific ones Section 5 worries about (forged island
    descriptors, tampering with pass-through data of protocols the
    transit AS does not speak).

    Attacks act through ordinary control-plane machinery: hijacks inject
    a forged announcement at every neighbor (bypassing the attacker's own
    honest decision process, which might prefer the victim's real route
    and never export the forgery), a leak swaps the attacker's export
    rule for
    {!Dbgp_bgp.Policy.export_all}, and the tampering attacks install an
    egress interposer ({!Dbgp_netsim.Network.set_interposer}) that
    rewrites announcements the attacker forwards.  Everything is
    reversible with {!stand_down} so a harness can measure
    time-to-recover.

    Detection lives in [Dbgp_eval.Invariants] (origin mismatch,
    valley-export walks, island-descriptor ground truth, pass-through
    integrity); blast-radius scoring in [Dbgp_eval.Adversary]. *)

type kind =
  | Origin_hijack
      (** Originate the victim's prefix claiming the attacker as origin. *)
  | Subprefix_hijack
      (** Originate a more-specific half of the victim's prefix — wins at
          every AS by longest-prefix match regardless of path quality. *)
  | Forged_path_hijack
      (** Originate the victim's prefix with the forged path
          [attacker, victim]: the claimed origin is legitimate, defeating
          pure origin validation. *)
  | Route_leak
      (** Export provider/peer-learned routes to other providers/peers
          (Gao-Rexford valley violation). *)
  | Island_forgery
      (** Inject a forged island descriptor into forwarded
          announcements, claiming capabilities no island published. *)
  | Passthrough_tamper
      (** Strip foreign-protocol pass-through descriptors from forwarded
          announcements — the Section 5 tampering threat. *)

val all : kind list
val name : kind -> string
val describe : kind -> string

val is_hijack : kind -> bool
(** The three hijack variants — the classes the BGPSec-like critical fix
    (with origin authorization) claims to contain. *)

type t = {
  kind : kind;
  attacker : Dbgp_types.Asn.t;
  victim : Dbgp_types.Asn.t;
  prefix : Dbgp_types.Prefix.t;  (** the victim's ground-truth prefix *)
}

val poisoned_prefix : t -> Dbgp_types.Prefix.t
(** The prefix the attack poisons: the forged more-specific for
    {!Subprefix_hijack}, the victim's prefix otherwise. *)

val forged_island : Dbgp_types.Island_id.t
val forged_proto : Dbgp_types.Protocol_id.t
val forged_field : string

val tamper_proto : Dbgp_types.Protocol_id.t
(** The foreign protocol whose descriptors {!Passthrough_tamper}
    strips. *)

val launch : Dbgp_netsim.Network.t -> t -> unit
(** Begin the attack (scheduled on the network's event queue where it
    emits messages; export-rule/interposer changes are immediate). *)

val stand_down : Dbgp_netsim.Network.t -> t -> unit
(** Undo it: inject withdrawals for the hijacked prefix at every
    neighbor, restore the valley-free export rule, or clear the
    interposer — in each case re-advertising so downstream state heals
    and recovery time is measurable. *)
