(** Pipeline benchmark: what the staged RIB pipeline saves.

    Converges seeded BRITE topologies under a positive MRAI — so arriving
    updates are batched into each speaker's dirty-prefix scheduler and
    drained once per interval — and reports, from the speakers' own
    [pipeline.*] counters:

    - {e decision runs per delivered update}: below 1.0 whenever
      coalescing beats the eager run-per-message speaker;
    - the {e export hit rate}: the share of neighbors served by their
      peer group's egress evaluation rather than evaluating it — each
      route change evaluates egress once per group ([export_misses]) and
      fans it out to the other members ([export_hits]).

    Deterministic for a given seed except for the wall-clock fields. *)

type row = {
  ases : int;
  prefixes : int;
  messages : int;          (** wire messages delivered network-wide *)
  updates : int;           (** announcements + withdrawals handed to speakers *)
  decision_runs : int;
  runs_per_update : float; (** < 1.0 means coalescing beat run-per-message *)
  dirty_marks : int;
  runs_saved : int;
  drains : int;
  export_hits : int;
  export_misses : int;
  export_hit_rate : float;
  elapsed_s : float;
  updates_per_s : float;
}

val run : ases:int -> unit -> row
(** Converges a seed-42 BRITE topology of [ases] ASes with 4 prefixes
    (originated from distinct low ASNs) under MRAI 2.0 s. *)

val suite : unit -> row list
(** One {!run} per topology size: 100, 500 and 1000 ASes. *)

val to_snapshot : row -> Dbgp_obs.Snapshot.t
val pp : Format.formatter -> row -> unit
