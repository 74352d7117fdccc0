(** Wiser deployed over D-BGP (critical fix; Mahajan et al., NSDI '07).

    Wiser fixes BGP's inability to let ASes limit ingress traffic by
    disseminating a path cost in advertisements.  Upgraded ASes add
    their internal cost before selecting the lowest-cost path.  To stop
    cheating, islands periodically exchange the total costs of paths
    they receive from each other and scale a neighbor island's costs to
    be comparable with their own (Sections 2.2 and 3.4).

    Across a gulf the exchange happens out-of-band: each island's IA
    carries an island descriptor naming a cost-exchange portal, and
    downstream islands post/fetch totals there (Figure 8 uses the lookup
    service as both islands' portals). *)

val protocol : Dbgp_types.Protocol_id.t

val field_cost : string
(** Path descriptor carrying the accumulated path cost. *)

val field_portal : string
(** Island descriptor naming the island's cost-exchange portal. *)

val service : string
(** Lookup-service name under which portals converse. *)

type config = {
  my_island : Dbgp_types.Island_id.t;
  internal_cost : int;  (** cost this AS adds to paths it selects *)
  portal : Dbgp_types.Ipv4.t;  (** my island's cost-exchange portal address *)
  io : Portal_io.t;
}

type t

val create : config -> t

val decision_module : t -> Dbgp_core.Decision_module.t
(** Import: scales incoming costs by the factor learned for the upstream
    island's portal (1.0 until an exchange has happened — the "guess"
    of Section 3.4) and records the observation.  Select: lowest scaled
    cost, then shortest path.  Contribute: adds [internal_cost] and
    attaches the portal descriptor. *)

val cost_of : Dbgp_core.Ia.t -> int option
(** The advertised path cost, if any. *)

val upstream_portal :
  my_island:Dbgp_types.Island_id.t -> Dbgp_core.Ia.t -> Dbgp_types.Ipv4.t option
(** The cost-exchange portal of the nearest Wiser island on the path
    that is not mine. *)

val exchange_costs : t -> unit
(** One round of the periodic out-of-band exchange: posts my totals at my
    portal and refreshes scaling factors from every portal observed in
    received IAs.  The scaling factor for a neighbor island is
    (average cost I see locally) / (average cost they report), clamped
    to a sane range. *)

(** {1 Load feedback}

    The divergence-lab gadget ({!Dbgp_eval.Stability}): downstream
    observers post the demand they currently route through an egress at
    that egress's portal; a load-sensitive egress folds
    [demand * sensitivity] into the cost it advertises.  When the
    sensitivity is large relative to the static cost gap between two
    egresses, the advertised costs chase the traffic they attract and
    the island's egress choice oscillates — a control loop closed
    through the out-of-band gossip channel, invisible to any BGP-message
    analysis. *)

val set_demand_sensitivity : t -> int -> unit
(** Cost added per unit of posted demand (default 0 = classic Wiser). *)

val demand : t -> int
(** Demand last observed by {!poll_demand}. *)

val post_demand : t -> portal:Dbgp_types.Ipv4.t -> int -> unit
(** Post an observed demand figure at [portal] (an egress's portal). *)

val poll_demand : t -> bool
(** Fetch the demand posted at my own portal and adopt it; [true] when
    the adopted value changes the cost this instance would advertise
    (i.e. the caller should re-run the decision process and
    re-advertise). *)
