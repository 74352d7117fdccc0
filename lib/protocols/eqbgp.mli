(** EQ-BGP-style QoS-aware critical fix (Beben '06).

    Disseminates an end-to-end QoS metric — here bottleneck bandwidth —
    as a path descriptor.  Each upgraded AS narrows the bottleneck by its
    own ingress bandwidth and selects the widest path.  This is also the
    decision-module form of the paper's {e bottleneck-bandwidth
    archetype} (Section 6.3): its benefits depend on a single AS's
    bandwidth that may sit inside a gulf, making it one of the hardest
    objective functions to satisfy incrementally. *)

val protocol : Dbgp_types.Protocol_id.t

val bandwidth_of : Dbgp_core.Ia.t -> int option

type config = { ingress_bandwidth : int }

val decision_module : config -> Dbgp_core.Decision_module.t
(** Select: the greatest advertised bottleneck (missing = unknown,
    ranked below any known bandwidth), then shortest path.  Contribute:
    bottleneck := min(bottleneck, my ingress bandwidth). *)
