(** Dirty-prefix scheduler: the work queue between pipeline stages.

    Ingesting an update (stage 1) only {!mark}s its prefix dirty;
    best-path selection (stage 2) runs once per dirty prefix per
    {!drain}, however many updates arrived in between.  Marks for an
    already-dirty prefix are coalesced — each is a decision run saved
    relative to the eager run-per-message speaker.

    Counters (registered on the owning speaker's metrics registry):
    [pipeline.dirty_marks] — total marks; [pipeline.runs_saved] —
    marks coalesced into an already-dirty prefix; [pipeline.drains] —
    non-empty drains. *)

type t

val create : Dbgp_obs.Metrics.t -> t

val mark : t -> Dbgp_types.Prefix.t -> unit
val pending : t -> int

val drain : t -> f:(Dbgp_types.Prefix.t -> 'a list) -> 'a list
(** Clear the dirty set and run [f] once per prefix in ascending order,
    concatenating the results.  Prefixes marked dirty *by* [f] land in
    the next drain.  Costs O(k) for the k prefixes marked (O(k log k)
    below 1,024 of them), however large earlier batches were. *)
