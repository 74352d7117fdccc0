(** An R-BGP-like critical fix: pre-computed backup paths for fast
    failover (Kushman et al., NSDI '07; Table 1's "extra backup paths").

    Each upgraded AS advertises, alongside its best path, one {e failover
    path} — its best alternative that is maximally disjoint from the
    primary.  A downstream AS that loses its primary can switch to the
    advertised backup immediately, without waiting for path-vector
    re-convergence.  R-BGP is a two-way protocol in full generality; like
    Wiser, the downstream direction would run out-of-band of D-BGP
    (Section 3.5's limitation), which this module does not need for the
    failover-path dissemination itself. *)

val protocol : Dbgp_types.Protocol_id.t

val backup_of : Dbgp_core.Ia.t -> Dbgp_types.Path_elem.t list option

val set_backup :
  Dbgp_types.Path_elem.t list -> Dbgp_core.Ia.t -> Dbgp_core.Ia.t

val most_disjoint :
  primary:Dbgp_types.Path_elem.t list ->
  Dbgp_core.Decision_module.candidate list ->
  Dbgp_core.Decision_module.candidate option
(** The candidate sharing the fewest ASes with the primary (ties to the
    shorter path, then the usual deterministic tie-break). *)

val decision_module : unit -> Dbgp_core.Decision_module.t
(** Selects by BGP's rules; remembers, per prefix, the runner-up that is
    most disjoint from the winner and attaches its path vector as the
    backup descriptor on contribution. *)

val failover : Dbgp_core.Ia.t -> Dbgp_types.Path_elem.t list option
(** What a downstream AS switches to when the primary dies: the backup,
    checked loop-free against nothing (the caller revalidates against
    its own AS). *)
