(** End-to-end deployment scenarios on the network simulator.

    Each function builds a concrete topology with real D-BGP speakers,
    runs it to convergence under both baselines (pass-through on = D-BGP,
    off = plain BGP), and reports what the interested AS could observe —
    the observables of the paper's motivating examples (Figures 1-3) and
    its MiniNeXT deployment experiments (Figure 8, Section 6.1). *)

(** Figure 1 / Section 3.4: Wiser across a gulf.  An island containing
    the destination has a cheap long egress (cost 10) and an expensive
    short one (cost 100); S supports Wiser on the far side of a BGP
    gulf. *)
type wiser_result = {
  cost_seen : int option;        (** Wiser cost visible at S with D-BGP *)
  chose_low_cost : bool;         (** S picked the longer, cheaper path *)
  portal_seen : bool;            (** the cost-exchange portal descriptor
                                     survived the gulf *)
  cost_seen_bgp : int option;    (** ... with plain BGP ([None] expected) *)
  chose_low_cost_bgp : bool;     (** BGP picks the short expensive path *)
}

val wiser_across_gulf : unit -> wiser_result

(** Figure 8, Pathlet arm: island A disseminates one-hop pathlets
    internally; border A2 composes a two-hop pathlet and advertises it
    plus its remaining one-hop pathlets across the gulf; border A3
    advertises its own.  S (in island B) must see all of them. *)
type pathlet_result = {
  expected : int;                (** pathlets that should reach S (5) *)
  seen : int;                    (** pathlets S saw with D-BGP *)
  seen_bgp : int;                (** with plain BGP (0 expected) *)
  end_to_end : int;              (** composable S->D routes from them *)
}

val pathlet_across_gulf : unit -> pathlet_result

(** Figure 2: off-path discovery of a MIRO island's service. *)
type miro_result = {
  discovered : bool;
  discovered_bgp : bool;
  negotiated : (string * Dbgp_types.Ipv4.t) option;
      (** path id and tunnel endpoint obtained from the portal *)
  tunnel_works : bool;
      (** data plane: traffic tunneled to the endpoint is delivered *)
}

val miro_discovery : unit -> miro_result

(** Figure 3: a SCION island exposes two within-island paths; only one
    survives redistribution into BGP, but the island descriptor carries
    both across the gulf. *)
type scion_result = {
  paths_seen : int;      (** within-island paths S sees with D-BGP (2) *)
  paths_seen_bgp : int;  (** with plain BGP (0: descriptor stripped) *)
  forwarded_on_extra : bool;
      (** data plane: S can actually use the non-redistributed path *)
}

val scion_multipath : unit -> scion_result

(** {1 The divergence lab: known-divergent gadget topologies}

    The cases of the {!Stability} report.  Every case advertises the
    same gadget prefix:
    - ["bad-gadget"]: Griffin/Shepherd/Wilfong's BAD GADGET, a 3-ring
      around the origin where each AS prefers the route through its
      clockwise neighbor.  No stable path assignment exists; the
      simulation can never quiesce.
    - ["med-oscillation"]: RFC 3345 Type-I churn, a two-router cluster
      with partial visibility, MED steering from a multihomed neighbor,
      and a non-monotone IGP tie-break.  No joint state is a fixed point.
    - ["wiser-feedback"]: a Wiser cost-feedback loop across gossip
      islands: load-sensitive egress costs chase the demand they
      attract, through the out-of-band portal gossip rather than through
      BGP messages.  Its network carries a self-rescheduling gossip
      tick, so it only runs under an event budget.
    - ["good-gadget"]: BAD GADGET with every preference flipped —
      wheel-free, hence provably safe; the converged control.
    - ["relay-line"]: a converged control mirroring the relay-line
      golden workload.
    - ["brite-30"]: a converged control mirroring the chaos BRITE
      topology (no faults). *)

val bad_gadget_spec : Stability.pref_spec
val good_gadget_spec : Stability.pref_spec

val divergence_cases :
  ?seed:int -> ?control_ases:int -> unit -> Stability.case list
(** The full case pack: the three divergent gadgets plus the three
    converged controls, in report order.  [seed] (default 42) and
    [control_ases] (default 30) shape the BRITE control. *)
