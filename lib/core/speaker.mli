(** A D-BGP speaker: the full IA-processing pipeline of Figure 5.

    One speaker per AS (centralized control) or per border router
    (distributed control).  The pipeline on receipt of an IA:

    + global import filters — loop rejection, operator policy (stage 1);
    + the protocol extractor hands candidates to the active decision
      module for the prefix (stage 2), applying the module's import
      filter (stage 3);
    + the module selects a best path (stage 4);
    + on change, the IA factory builds the outgoing IA with pass-through
      (stage 6), modules contribute their control information (stage 5),
      and global export filters — island abstraction or membership
      declaration, legacy downgrade — run per neighbor (stage 7).

    Internally the speaker is an explicit three-stage RIB pipeline —
    {!Adj_rib_in} (per-peer post-import routes + stale marks), {!Loc_rib}
    (selected best + FIB), {!Adj_rib_out} (peer groups and per-neighbor
    advertised state) — connected by a dirty-prefix scheduler
    ({!Pipeline}).
    The netsim session layer delivers every message as a frame of bytes
    through the one wire receive, {!receive_wire}, which decodes,
    ingests and (unless deferred) drains.  {!receive} is the same
    receive for a caller holding one message: it encodes the message's
    frame first, so every receive crosses the decoder.  {!ingest} +
    {!flush} split ingestion from the drain so a caller can batch many
    decoded updates into one decision run per prefix.

    Speakers are pure with respect to I/O: {!receive_wire},
    {!originate} and {!peer_down} return the messages to transmit; the
    netsim session layer owns delivery. *)

type msg =
  | Announce of Ia.t
  | Withdraw of Dbgp_types.Prefix.t

type neighbor = {
  peer : Peer.t;
  relationship : Dbgp_bgp.Policy.relationship;
  import : Filters.t;      (** per-neighbor import policy *)
  export : Filters.t;      (** per-neighbor export policy *)
  dbgp_capable : bool;     (** false: strip IAs down to plain BGP *)
  same_island : bool;      (** true: skip island egress processing *)
}

val neighbor :
  ?import:Filters.t ->
  ?export:Filters.t ->
  ?dbgp_capable:bool ->
  ?same_island:bool ->
  relationship:Dbgp_bgp.Policy.relationship ->
  Peer.t ->
  neighbor

type config = {
  asn : Dbgp_types.Asn.t;
  addr : Dbgp_types.Ipv4.t;
  island : Dbgp_types.Island_id.t option;
  island_members : Dbgp_types.Asn.t list;
  hide_island_interior : bool;
  (** true: replace member ASes with the island ID at egress;
      false: list them and declare membership. *)
  passthrough : bool;
  (** The evolvability feature itself.  false = plain-BGP behaviour. *)
  global_import : Filters.t;
  global_export : Filters.t;
}

val config :
  ?island:Dbgp_types.Island_id.t ->
  ?island_members:Dbgp_types.Asn.t list ->
  ?hide_island_interior:bool ->
  ?passthrough:bool ->
  ?global_import:Filters.t ->
  ?global_export:Filters.t ->
  asn:Dbgp_types.Asn.t ->
  addr:Dbgp_types.Ipv4.t ->
  unit ->
  config

type t

val create : config -> t
val asn : t -> Dbgp_types.Asn.t
val addr : t -> Dbgp_types.Ipv4.t
val island_of : t -> Dbgp_types.Island_id.t option
val add_module : t -> Decision_module.t -> unit
(** Registers a decision module.  The BGP module is pre-registered. *)

val supported : t -> Dbgp_types.Protocol_id.Set.t

val set_active : t -> Dbgp_types.Prefix.t -> Dbgp_types.Protocol_id.t -> unit
(** Selects the active protocol for an address range (longest-match).
    Default for everything is BGP.
    @raise Invalid_argument if no module for the protocol is registered. *)

val add_neighbor : t -> neighbor -> unit
(** Also places the neighbor in the peer group matching its egress
    identity (relationship, capability, island class, export filter) and
    builds its stage-7 filter chain.  Re-adding a neighbor rebinds it:
    it moves group if its egress identity changed and keeps what was
    advertised to it. *)

val neighbors : t -> neighbor list
val has_neighbor : t -> Peer.t -> bool

val remove_neighbor : ?now:float -> t -> Peer.t -> (Peer.t * msg) list
(** Administrative removal: {!peer_down} plus erasure of the peer's
    flap-damping state.  Leaves no Adj-RIB-In routes, stale marks,
    Adj-RIB-Out state, group membership or damping memory behind
    (asserted by [Dbgp_eval.Invariants.peer_clean]). *)

val originate : ?now:float -> t -> Ia.t -> (Peer.t * msg) list
(** Injects a locally originated route (the IA as built by
    {!Ia.originate} plus any descriptors) and returns announcements.
    [now] is the simulation clock, used only by flap damping. *)

val withdraw_origin : ?now:float -> t -> Dbgp_types.Prefix.t -> (Peer.t * msg) list
(** Stops originating [prefix]: removes the local route, re-runs the
    decision process (falling back to any learned route) and returns the
    resulting withdrawals/announcements.  No-op if the prefix was not
    locally originated.  How a hijacker stands down. *)

val set_export_rule : t -> Dbgp_bgp.Policy.export_rule -> unit
(** Replace the relationship-keyed export gate (default
    {!Dbgp_bgp.Policy.valley_free}).  Takes effect on subsequent
    emissions only; call {!readvertise_all} to re-derive what has
    already been advertised.  [Policy.export_all] here is
    exactly a route leak. *)

val export_rule : t -> Dbgp_bgp.Policy.export_rule
(** The currently installed export gate. *)

val readvertise_all : t -> (Peer.t * msg) list
(** Unconditionally re-derive the advertisements for every Loc-RIB
    prefix.  Unlike {!reevaluate}, this re-runs the per-neighbor export
    decision even when the best route is unchanged, so it picks up an
    export-rule change: newly eligible peers get the announce, newly
    ineligible previously-announced peers a withdraw. *)

val peer_down : ?now:float -> t -> Peer.t -> (Peer.t * msg) list
(** Session loss: drops the peer's pipeline state but — deliberately —
    retains its flap-damping memory, so a flapping link cannot reset its
    own penalties.  {!remove_neighbor} also forgets the damping state. *)

(** {1 Batched ingestion: the dirty-prefix pipeline}

    {!receive_wire} = decode + {!ingest} + {!flush}.  The batched
    network path defers the flush to MRAI boundaries: every update
    between two flushes only marks its prefix dirty, and {!flush} runs
    the decision process once per dirty prefix — coalescing redundant
    runs (counted as [pipeline.runs_saved]). *)

val ingest : ?now:float -> t -> from:Peer.t -> msg -> unit
(** Absorb one update into the Adj-RIB-In and mark its prefix dirty,
    without running the decision process.  Never raises (same absorption
    contract as {!receive_wire}).  All arrival-time accounting — received /
    duplicate / rejected counters, stale-mark clearing, flap penalties —
    happens here. *)

val flush : ?now:float -> t -> (Peer.t * msg) list
(** Drain the dirty set: run best-path selection once per dirty prefix
    (ascending) and return every resulting emission. *)

val pending : t -> int
(** Dirty prefixes awaiting a {!flush}. *)

(** {1 Wire-level receive: RFC 7606-style error handling}

    {!receive_wire} is how every delivered message reaches a speaker:
    one frame of bytes in any {!Codec.layout}, decoded by
    {!Codec.decode_frame} under the revised-error-handling severity
    ladder — malformed descriptors or NLRI entries are discarded
    individually, structural damage around a readable prefix (or a
    missing next hop) withdraws the frame's routes, and only lost
    framing is surfaced as a session-level error (the session layer
    decides whether to reset). *)

type rx_outcome =
  | Rx_accepted of int
      (** Routes accepted; the int counts descriptors or NLRI entries
          individually discarded as malformed ([Discard_attribute],
          usually 0). *)
  | Rx_filtered     (** Decoded fine but every route rejected by import policy. *)
  | Rx_withdrawn
      (** A withdraw frame, or treat-as-withdraw: the prefixes were
          readable but the rest was not trustworthy, so any previous
          route from this peer for them was withdrawn (starting the
          damping penalty clock). *)
  | Rx_session_error
      (** Framing damage; nothing could be salvaged. *)

val receive_wire :
  ?now:float ->
  ?defer:bool ->
  t ->
  from:Peer.t ->
  Codec.layout ->
  string ->
  rx_outcome * (Peer.t * msg) list
(** Feed one encoded frame through the pipeline: every salvaged route
    and withdraw is ingested, then one decision {!flush} runs.  Never
    raises; every error verdict is counted ([errors.discard_attribute],
    [errors.treat_as_withdraw], [errors.session_reset]) and traced as
    an [rx_error] event.  [defer] (default false) skips the flush — the
    emission list is then always empty and the frame takes effect at
    the next {!flush}. *)

val frame : msg -> Codec.frame
(** The one-prefix frame a message crosses the wire as. *)

val receive : ?now:float -> t -> from:Peer.t -> msg -> (Peer.t * msg) list
(** {!receive_wire} of the message's one-prefix {!frame}: encoded, then
    decoded, ingested and drained like any delivery, so a caller that
    holds a message rather than bytes still crosses the codec.  Never
    raises: an exception thrown anywhere in the pipeline (a filter, a
    decision module, the factory) is absorbed, counted as
    [errors.internal] and traced, and the message is dropped — a hostile
    update cannot tear down the speaker.  Byte-identical duplicate
    announcements are absorbed without re-running the decision process
    (counted as [updates.duplicate]). *)

(** {1 Resilience: graceful restart (RFC 4724) and flap damping (RFC 2439)} *)

val peer_down_graceful : ?now:float -> t -> Peer.t -> unit
(** Session loss with restart capability: the peer's routes stay in the IA
    DB (and stay selectable) but are marked stale.  A fresh announcement
    or withdrawal clears the mark; {!flush_stale} drops the rest. *)

val flush_stale : ?now:float -> t -> Peer.t -> (Peer.t * msg) list
(** Close the restart window: drop the peer's still-stale routes and
    return the resulting withdrawals/announcements. *)

val sync_peer :
  ?limit:int ->
  ?cursor:Dbgp_types.Prefix.t ->
  t ->
  Peer.t ->
  (Peer.t * msg) list * Dbgp_types.Prefix.t option
(** Incremental/streaming table transfer on session (re)establish: walk
    up to [limit] Loc-RIB routes strictly above [cursor] (all of them,
    from the start, by default) and emit only the routes whose current
    emission differs from the peer's confirmed Adj-RIB-Out record —
    routes the peer provably already holds are skipped.  Returns the
    messages and the cursor to resume from; [None] means the transfer
    is complete and withdrawals for records no longer backed by a
    Loc-RIB route (including dropped-withdraw tombstones) have been
    appended.  With no records at all (a non-graceful teardown dropped
    them) this degenerates to a full-table send.  Counted under
    [sync.sent] / [sync.skipped] / [sync.withdrawn]. *)

val note_undelivered : t -> Peer.t -> Dbgp_types.Prefix.t -> unit
(** Transport feedback: the last message for the prefix toward the peer
    was dropped.  Demotes the Adj-RIB-Out record to unconfirmed (a
    dropped withdrawal leaves a tombstone) so {!sync_peer} re-sends
    it. *)

val unconfirm_peer : t -> Peer.t -> unit
(** Route refresh: treat the peer as holding nothing we can confirm.
    Every Adj-RIB-Out record toward it becomes unconfirmed, so the next
    {!sync_peer} re-sends every route and withdraws every record no
    longer backed by a Loc-RIB route. *)

val end_of_rib : ?now:float -> t -> Peer.t -> int
(** End-of-RIB marker for a completed incremental transfer (RFC 4724
    §3): clear the peer's remaining stale marks {e without} dropping the
    routes — they are exactly the ones the sender skipped as confirmed.
    Returns the number retained (counted under [restart.retained]).
    Contrast {!flush_stale}, which drops what an expired restart window
    never refreshed. *)

val stale_count : t -> int
(** Routes currently retained as stale across all peers. *)

val is_stale : t -> Peer.t -> Dbgp_types.Prefix.t -> bool
val has_stale : t -> Peer.t -> bool

val set_damping : t -> Dbgp_bgp.Flap_damping.params option -> unit
(** Enable (or disable, with [None]) route-flap damping in the decision
    path.  @raise Invalid_argument on inconsistent thresholds. *)

val take_reuse_events : t -> (Dbgp_types.Prefix.t * float) list
(** Drain the (prefix, absolute time) re-evaluation obligations created
    when a route became suppressed; the runtime must call {!reevaluate}
    at each returned time. *)

val reevaluate : ?now:float -> t -> Dbgp_types.Prefix.t -> (Peer.t * msg) list
(** Re-run the decision process for a prefix (used when a suppressed
    route's penalty has decayed below the reuse threshold). *)

val suppressed : t -> now:float -> Peer.t -> Dbgp_types.Prefix.t -> bool
val has_flap_state : t -> Peer.t -> bool

(** {1 Peer groups}

    Neighbors with identical egress identity — relationship, capability,
    island class and (physically) the same export filter — share a peer
    group.  Each fan-out evaluates the export rule and egress filter
    chain once per group and serves the result to every member:
    [pipeline.export_cache.misses] counts group evaluations,
    [pipeline.export_cache.hits] members served by their group's
    evaluation.  No result is kept across fan-outs. *)

val export_group_of : t -> Peer.t -> int option

(** {1 Introspection} *)

type chosen = {
  candidate : Decision_module.candidate;  (** the selected incoming route *)
  outgoing : Ia.t;  (** the IA built for re-advertisement (pre per-neighbor filters) *)
}
(** A Loc-RIB route as the introspection calls return it: the winner and
    what it is re-advertised as.  The Loc-RIB itself stores only the
    winner's peer and the two attribute-set entries ({!Attr_table.entry});
    {!best} and {!best_routes} rebuild these IAs from them.  Every
    decision run that selects a route builds the outgoing IA afresh
    through the factory and identifies its set in the attribute table;
    when both sets and the peer equal the stored route's, the stored
    route stays and nothing is re-advertised. *)

val best : t -> Dbgp_types.Prefix.t -> chosen option
val best_routes : t -> (Dbgp_types.Prefix.t * chosen) list

val set_change_hook : t -> (now:float -> Dbgp_types.Prefix.t -> unit) option -> unit
(** Install (or clear) a callback fired from [process] each time the
    Loc-RIB entry for a prefix actually changes — after the new state is
    committed, before redistribution.  The stability detector
    ({!Dbgp_eval.Stability}) subscribes through
    {!Dbgp_netsim.Network.set_change_feed}. *)

val loc_fingerprint : t -> Dbgp_types.Prefix.t -> int
(** Order-insensitive digest of the current Loc-RIB state for the
    prefix: hashes the selecting peer plus the encoded outgoing IA
    (cheap via the encode cache).  0 iff no route is installed. *)

val next_hop_of : t -> Dbgp_types.Ipv4.t -> Dbgp_types.Ipv4.t option
(** Longest-prefix-match FIB lookup: the neighbor address traffic to this
    destination should be forwarded to ([None] at the origin AS or when
    unreachable). *)

val adj_out : t -> Peer.t -> (Dbgp_types.Prefix.t * Ia.t) list
(** What we last announced to the peer. *)

val adj_out_peers : t -> Peer.t list
(** Peers with at least one currently advertised route. *)

val has_adj_in : t -> Peer.t -> bool
(** Whether the Adj-RIB-In still holds any route from the peer. *)

val candidates_for : t -> Dbgp_types.Prefix.t -> (Peer.t * Ia.t) list
(** Every received (post-global-import) IA for the prefix — the raw
    material replacement protocols' ingress translation modules consume
    (Section 3.3: borders translate the IAs they receive, not only the
    selected best). *)

val iter_attr_refs : t -> (Attr_table.entry -> unit) -> unit
(** Every attribute-set reference the speaker holds: one per Adj-RIB-In
    route, one per local origination and two per Loc-RIB route (the
    selected set and the re-advertised one) — the references
    {!Attr_table.audit} balances against refcounts. *)

(** Probes of internal speaker state, for the tests that pin it. *)
module For_tests : sig
  val active_for : t -> Dbgp_types.Prefix.t -> Dbgp_types.Protocol_id.t
  (** The protocol of the most-specific active range that covers the
      whole prefix; a narrower range inside the prefix does not count. *)

  val flap_penalty : t -> now:float -> Peer.t -> Dbgp_types.Prefix.t -> float
  (** The neighbor's current damping penalty for the prefix (0 without
      damping state). *)
end

(** {1 Observability} *)

val metrics : t -> Dbgp_obs.Metrics.t
(** The speaker's own metrics registry.  Counters: [decision.runs],
    [decision.changes], [updates.received], [updates.duplicate],
    [withdrawals.received], [import.rejected], [damping.suppressed],
    [damping.reused], [restart.stale_marked], [restart.flushed],
    [restart.retained], and the error-class counters
    [errors.discard_attribute], [errors.treat_as_withdraw],
    [errors.session_reset], [errors.internal].  Table transfers count
    under [sync.sent], [sync.skipped] and [sync.withdrawn] — a route
    refresh too, since it is a {!sync_peer} after {!unconfirm_peer}.
    Pipeline counters: [pipeline.dirty_marks],
    [pipeline.runs_saved], [pipeline.drains],
    [pipeline.export_cache.hits], [pipeline.export_cache.misses].
    Gauge: [decision.last_change_at] (simulation time of the last
    best-path change). *)

val trace : t -> Dbgp_obs.Trace.t
(** The speaker's event trace (decision runs, damping and restart
    phases, import rejections). *)

