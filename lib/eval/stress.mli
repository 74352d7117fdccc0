(** The Section 5 stress test: Beagle's processing overhead.

    Replays a synthetic advertisement trace (the RIPE-trace substitute)
    into a router under test and reports sustained prefixes/second:

    - the {e Quagga-equivalent} arm parses and selects plain BGP UPDATE
      messages (wire decode -> decision process -> RIB);
    - the {e Beagle} arm does the same through the full D-BGP pipeline
      (IA decode -> speaker receive -> IA factory), swept over IA
      payload sizes (0 / 32 KB / 256 KB in the paper).

    The paper's shape: BGP-only throughput is nearly identical across
    the two routers (40,700 vs 40,900 prefixes/s on their hardware) and
    Beagle's throughput decays with IA size due to serialization cost
    (7,073 prefixes/s at 32 KB, 926 at 256 KB). *)

type result = {
  label : string;
  advertisements : int;
  peers : int;
  avg_adv_bytes : int;
  elapsed_s : float;
  prefixes_per_s : float;
}

val run_quagga_equivalent : advertisements:int -> unit -> result
val run_beagle : ?payload_bytes:int -> advertisements:int -> unit -> result

type budget_probe = {
  ases : int;
  budget : int;
  events_run : int;         (** events executed under the bounded run *)
  budget_exhausted : bool;
  (** the bounded run reported exhaustion AND the unbounded control run
      did not — the {!Dbgp_netsim.Event_queue} budget signal observed
      end to end *)
}

val run_budget_probe : ?ases:int -> ?budget:int -> unit -> budget_probe
(** Run a provider chain under a deliberately insufficient [budget] of
    simulator events, plus an unbounded control, and report whether
    truncation was correctly surfaced via [Network.stats.exhausted]. *)

val pp_budget_probe : Format.formatter -> budget_probe -> unit

val suite : ?advertisements:int -> unit -> result list
(** The paper's comparison: Quagga BGP-only, Beagle BGP-only (eager and
    batched), Beagle 32 KB IAs, Beagle 256 KB IAs, every arm replaying
    the same number of advertisements.  The default of 2,000 (the paper used 150,000/peer)
    keeps the benchmark under half a minute while preserving the
    comparison; scale up with [advertisements] for steadier rates. *)

val pp_result : Format.formatter -> result -> unit
