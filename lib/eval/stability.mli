(** The divergence lab: detect and classify policy-induced routing
    instability.

    "BGP Stability is Precarious" and the SPVP line of work
    (Griffin/Shepherd/Wilfong) show that essentially any change to the
    decision process — exactly what D-BGP exists to deploy — can cause
    permanent divergence.  This module makes that failure mode
    first-class: run a network under an event budget and report
    {!Converged}, {!Oscillating} (with a measured period and the
    affected prefixes), or {!Censored} (budget exhausted, no recurring
    cycle found).

    Soundness of the classification: at quiescence every speaker's
    Loc-RIB entry is a best response to its neighbors' advertisements,
    so a drained event queue {e is} a stable path assignment.  A gadget
    with no stable assignment can therefore never drain the queue; the
    online detector then looks for a recurring cycle in the per-prefix
    global routing-state digest fed by
    {!Dbgp_netsim.Network.set_change_feed}. *)

(** {1 Static dispute-wheel detection} *)

type pref_spec = {
  origin : int;
  prefs : (int * int list list) list;
      (** Per node: permitted AS-level paths to [origin] (own ASN first,
          origin last), most preferred first.  Unlisted paths are
          filtered. *)
}

val dispute_wheel : pref_spec -> int list option
(** The nodes of a dispute wheel in the preference structure, if one
    exists.  No wheel implies the policies are safe (convergence
    guaranteed under any activation order); a wheel is a divergence
    {e risk} — BAD GADGET diverges, DISAGREE merely admits two stable
    states. *)

(** {1 Gadget decision modules} *)

val spvp_protocol : Dbgp_types.Protocol_id.t

val spvp_module : ranked:int list list -> Dbgp_core.Decision_module.t
(** A ranked-preference (SPVP-style) decision module: [ranked] lists the
    permitted {e received} paths (neighbor's ASN first, origin last),
    most preferred first; import rejects everything else, selection is
    by rank. *)

val med_protocol : Dbgp_types.Protocol_id.t

val med_module :
  me:int ->
  cluster:int list ->
  igp:((int * int) * int) list ->
  Dbgp_core.Decision_module.t
(** The RFC 3345 construction: a route-reflector-style cluster member
    comparing MEDs only within one exit AS, breaking the survivor tie by
    per-router IGP cost ([igp] maps (exit router, exit AS) to cost).
    MED's partial order plus partial visibility (each member advertises
    only its best) admits permanent churn. *)

(** {1 Online oscillation detection} *)

type detector

val attach : Dbgp_netsim.Network.t -> detector
(** Subscribe to the network's Loc-RIB change feed and start
    accumulating per-prefix global-state digests. *)

val detach : detector -> unit

type cycle = {
  period : int;        (** in Loc-RIB change events for the prefix *)
  time_period : float; (** the same period in simulated seconds *)
  last_at : float;     (** when the prefix last changed *)
}

val cycles :
  detector -> end_time:float -> (Dbgp_types.Prefix.t * cycle) list
(** Prefixes whose recent digest sequence repeats with a verified period
    and whose churn was still live near [end_time]. *)

(** {1 Classification} *)

type verdict =
  | Converged of { at : float }
  | Oscillating of {
      period : int;
      time_period : float;
      prefixes : Dbgp_types.Prefix.t list;
    }
  | Censored of { events : int }

val default_budget : int

val classify :
  ?budget:int ->
  Dbgp_netsim.Network.t ->
  verdict * Dbgp_netsim.Network.stats
(** Run the network under [budget] events with a detector attached and
    classify the outcome. *)

(** {1 The stability report} *)

type case = {
  name : string;
  prefix : Dbgp_types.Prefix.t;
  build : unit -> Dbgp_netsim.Network.t;
  spec : pref_spec option;
  expect_divergence : bool;
}

type row = {
  scenario : string;
  damping : bool;
  verdict : verdict;
  events : int;
  messages : int;
  decision_changes : int;
  withdrawals : int;
  suppressions : int;
  reuses : int;
  suppressed_at_end : int;
  wheel : int list option;
}

type report = {
  budget : int;
  rows : row list;
}

val gadget_damping : Dbgp_bgp.Flap_damping.params
(** Damping parameters under which policy churn a few simulated seconds
    apart can reach the suppression threshold within a typical budget. *)

val run_cases : ?budget:int -> case list -> report
(** Each case runs twice — damping off and with {!gadget_damping} —
    answering "does flap damping mask or amplify policy oscillation?"
    per scenario. *)

val censored : verdict -> bool
val to_snapshot : report -> Dbgp_obs.Snapshot.t
(** The [BENCH_stability.json] schema. *)

val pp_report : Format.formatter -> report -> unit
