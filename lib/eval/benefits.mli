(** The incremental-benefit simulations of Section 6.3 (Figures 9, 10).

    Simulates protocol archetypes' path choices on a BRITE/Waxman
    AS-level topology in which a growing random fraction of ASes has
    adopted the archetype and the rest select shortest valley-free
    paths, comparing two baselines:

    - {b BGP baseline}: archetype control information is dropped when a
      non-upgraded AS re-advertises a route (no pass-through);
    - {b D-BGP baseline}: the information passes through gulfs.

    Two archetypes, as in the paper:

    - {e extra paths} (SCION / NIRA / Pathlet-like): advertisements
      carry the number of paths they represent (cap 10); upgraded ASes
      select the candidate with the most paths and can themselves use
      every candidate, so their own count is the capped sum.  Benefit at
      an upgraded stub = total paths available, summed over
      destinations.
    - {e bottleneck bandwidth} (EQ-BGP-like): only upgraded ASes expose
      their ingress bandwidth (uniform in [10, 1024]); upgraded ASes
      select the widest advertised bottleneck, while the benefit metric
      is the {e true} bottleneck over every AS on the chosen path —
      which is why ill-informed choices initially underperform the
      status quo. *)

type baseline = Bgp_baseline | Dbgp_baseline

type config = {
  brite : Dbgp_topology.Brite.params;
  trials : int;                (** independent topologies+upgrade draws *)
  adoption_levels : int list;  (** percents, e.g. [10; 20; ...; 100] *)
  max_paths : int;             (** Figure 9's per-advertisement cap *)
  bw_lo : int;
  bw_hi : int;                 (** Figure 10's bandwidth range *)
  dest_sample : int;           (** destinations sampled per trial *)
  seed : int;
}

val default : config
(** The paper's setup: 1000 ASes, Waxman alpha 0.15 / beta 0.25, nine
    trials, adoption steps of 10%%, cap 10, bandwidths U[10,1024]. *)

type point = {
  adoption_pct : int;
  mean : float;   (** benefit averaged over trials *)
  ci95 : float;   (** 95%% confidence half-interval over trials *)
}

type series = {
  archetype : string;
  baseline : baseline;
  status_quo : float;  (** benefit of shortest-path routing at 0%% adoption *)
  best_case : float;   (** benefit at 100%% adoption *)
  points : point list;
}

(** Who upgrades first.  The paper deploys randomly ("reflecting the
    ideal case of providing ASes the flexibility to deploy a new protocol
    independently of their neighbors"); the ordered variants ablate that
    choice — tier-1-led versus edge-led rollouts. *)
type adoption_order = Random_order | Core_first | Edge_first

val extra_paths : ?order:adoption_order -> config -> baseline -> series
val bottleneck_bandwidth : config -> baseline -> series

val bottleneck_bandwidth_threshold :
  config -> coverage_pct:int -> baseline -> series
(** Section 3.5's mitigation for compliance-sensitive protocols: an
    upgraded AS applies the archetype's selection only to candidate
    paths whose ASes are at least [coverage_pct]%% upgraded (their
    advertised bottleneck is then trustworthy), and routes by shortest
    path otherwise — trading early benefits for avoiding the
    below-status-quo dip. *)

val end_to_end_latency : config -> baseline -> series
(** The additive-objective archetype of Section 6.3's aside ("some other
    protocols that aim to optimize a global objective, such as
    end-to-end latency, would see higher rates of incremental
    benefits").  Benefit values are negated true path latencies so that
    higher still means better, uniformly with the other archetypes. *)

val crossover : series -> int option
(** First adoption level from which the mean benefit {e stays} above the
    status quo — the "minimum participation" threshold discussed around
    Figure 10. *)

