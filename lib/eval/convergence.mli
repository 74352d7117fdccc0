(** Convergence-cost experiments (Section 3.5, "Potential concerns").

    The paper argues D-BGP should not worsen convergence, with two
    caveats: larger IAs make post-session-reset full-table transfers more
    expensive, and islands switching protocols too often would behave
    like link flaps.  These experiments quantify all three effects on
    our substrate:

    - {!vs_size}: messages and simulated convergence time to disseminate
      one prefix over growing Waxman topologies, with and without a
      large critical-fix descriptor attached;
    - {!after_failure}: re-convergence cost when a link on the best path
      fails;
    - {!session_reset}: a full-table transfer over a real FSM-driven
      session, BGP-only vs with IA payloads — the wire-byte
      amplification of resets. *)

val network_of_graph : Dbgp_topology.As_graph.t -> Dbgp_netsim.Network.t
(** Build a simulated network mirroring an As_graph: node [i] becomes
    AS [i+1], relationships preserved.  Shared with the stability
    controls and {!Perf_report}. *)

val shard_of_graph :
  mrai:float -> regions:int -> Dbgp_topology.As_graph.t -> Dbgp_netsim.Shard.t
(** The same topology declared on an unbuilt {!Dbgp_netsim.Shard} of
    [regions] regions: the caller may enable the transcript, then
    {!Dbgp_netsim.Shard.build}s it. *)

type dissemination = {
  ases : int;
  payload_bytes : int;
  messages : int;
  bytes : int;
  converged_at : float;
}

val vs_size :
  ?payloads:int list -> ?sizes:int list -> seed:int -> unit -> dissemination list
(** Defaults: payloads [0; 4096], sizes [50; 100; 200]. *)

type observed = {
  ases : int;
  censored : bool;
  (** the run stopped on its event budget with work still queued — every
      number below is a truncation point, not a converged state *)
  messages : int;
  announce_bytes : int;
  decision_runs : int;     (** decision-process executions, all speakers *)
  decision_changes : int;  (** runs that changed a best path *)
  p50 : float;             (** convergence-time percentiles across speakers *)
  p90 : float;
  p99 : float;
  snapshot : Dbgp_obs.Snapshot.t;  (** the full network snapshot *)
}

val observe :
  ?ases:int -> ?recent_events:int -> ?budget:int -> seed:int -> unit -> observed
(** Converge one dissemination (default 100 ASes) and read the
    observability layer back out: message/byte totals from the network
    registry, decision-process activity summed over the per-speaker
    registries, and exact convergence-time percentiles.  [recent_events]
    (default 20, 0 to omit) bounds the trace section of the snapshot.
    [budget] (default unbounded) caps simulator events; a capped run that
    stops early is reported with [censored = true]. *)

type failure = {
  initial_messages : int;
  reconvergence_messages : int;
  still_reachable : bool;  (** the far AS found an alternate path *)
}

val after_failure : ?ases:int -> seed:int -> unit -> failure

type reset = {
  prefixes : int;
  payload_bytes : int;
  handshake_messages : int;   (** session establishment cost *)
  initial_transfer_bytes : int;
  reset_transfer_bytes : int; (** the re-sent full table after the reset *)
}

val session_reset :
  ?prefixes:int -> ?payload_bytes:int -> unit -> reset

val pp_dissemination : Format.formatter -> dissemination -> unit
val pp_failure : Format.formatter -> failure -> unit
val pp_reset : Format.formatter -> reset -> unit
