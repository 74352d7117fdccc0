(** Adversary harness: blast-radius containment scoring.

    Runs every attack class in {!Dbgp_adversary.Attack} — the three
    prefix-hijack variants, the valley-free route leak, and the two
    D-BGP-specific tampering attacks — across three protocol arms:

    - {!Legacy}: plain BGP (no pass-through, foreign descriptors are
      stripped at every hop);
    - {!Dbgp}: D-BGP with pass-through, no cryptographic protection;
    - {!Dbgp_bgpsec}: D-BGP plus the BGPSec-like critical fix with
      per-hop attestations ([require_full]) and ROA-style origin
      authorization — the arm that claims to {e contain} hijacks.

    Each scenario converges an honest network, verifies every detection
    predicate is silent ([control_clean]), launches the attack, scores
    the blast radius — the fraction of other ASes whose data-plane walk
    toward the victim's destination {e newly} crosses the attacker — and
    the detection count, then stands the attacker down and verifies the
    network heals ([recovered_clean]).  Everything derives from one seed:
    the same config produces a byte-identical report snapshot. *)

type arm = Legacy | Dbgp | Dbgp_bgpsec

val arms : arm list

type topo = Brite | Caida

type config = {
  seed : int;
  brite_ases : int;
  caida_ases : int;
  budget : int option;  (** per-phase event budget; [None] = quiescence *)
}

val default : config
(** seed 42, 30-AS BRITE and 40-AS CAIDA-style graphs, no budget. *)

type outcome = {
  topo : topo;
  arm : arm;
  attack : Dbgp_adversary.Attack.t;
  ases : int;
  control_clean : bool;
      (** honest converged state passes all invariants and every
          applicable detection predicate is silent *)
  baseline_via : int;
      (** ASes legitimately routing through the attacker pre-attack *)
  poisoned : int;
      (** ASes whose walk toward the destination newly crosses the
          attacker under attack *)
  blast_radius : float;  (** [poisoned / (ases - 1)] *)
  time_to_poison : float;
      (** latest decision change among poisoned ASes, relative to launch *)
  detections : int;
      (** violations the attack's detection predicate reports *)
  detection_applicable : bool;
      (** false when the arm cannot see the attack (legacy BGP strips
          the descriptors the D-BGP attacks forge or tamper with) *)
  claims_containment : bool;
      (** BGPSec-like arm × hijack: the combination the critical fix
          claims to contain — [healthy] requires blast radius 0 here *)
  contained : bool;  (** [poisoned = 0] *)
  time_to_recover : float;
      (** latest decision change among previously poisoned ASes,
          relative to stand-down *)
  recovered_clean : bool;
      (** post-recovery state passes the control checks again and nobody
          newly routes via the attacker *)
  censored : bool;  (** a phase stopped on its event budget *)
}

type report = { config : config; outcomes : outcome list; healthy : bool }
(** [healthy] = every scenario has clean control and recovery phases, no
    censoring, every containment claim holds with zero blast radius,
    every applicable detection predicate fired under attack, and the
    BGPSec-like arm shows strictly smaller aggregate hijack blast radius
    than legacy on every topology. *)

val run : config -> report
(** The full suite: every topology × attack × arm. *)

val to_snapshot : report -> Dbgp_obs.Snapshot.t
(** JSON-ready; byte-identical across runs with the same config. *)

val pp_outcome : Format.formatter -> outcome -> unit
val pp_report : Format.formatter -> report -> unit
