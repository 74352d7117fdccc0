(** The network simulator: our MiniNeXT substitute.

    Hosts one {!Dbgp_core.Speaker} per AS, delivers control-plane
    messages over configured links with latency through the shared
    {!Event_queue}, and accounts message counts and bytes.  The
    Figure-8 deployment experiments, the motivating-scenario tests and
    the rich-world reproduction all execute on this harness.

    Neighbor policy lives on the speakers (configure with
    {!Dbgp_core.Speaker.add_neighbor} or the {!link} convenience); the
    network only knows connectivity and latency.

    Fault injection: attach a {!Fault_model} for probabilistic message
    loss and latency jitter, schedule link flaps with {!schedule_flap},
    and opt into graceful restart ({!set_graceful_restart}) and
    route-flap damping ({!set_damping}) to study resilience. *)

type t

type stats = {
  messages : int;        (** control messages delivered *)
  announce_bytes : int;  (** encoded IA bytes carried *)
  withdrawals : int;
  dropped : int;         (** messages lost to faults or cut links *)
  events : int;          (** total simulator events executed *)
  converged_at : float;  (** simulated time the network went quiet *)
  exhausted : bool;
      (** the run stopped because it hit its [max_events] budget with
          work still queued — [converged_at] is a truncation point, not
          a quiescent state *)
}

val create : unit -> t
val lookup : t -> Lookup_service.t
val queue : t -> Event_queue.t

val speaker_addr : Dbgp_types.Asn.t -> Dbgp_types.Ipv4.t
(** Deterministic address for an AS's speaker: 10.0.0.0/8 carved by AS
    number. *)

val add_speaker : t -> Dbgp_core.Speaker.t -> unit
(** @raise Invalid_argument if a speaker with the same address exists. *)

val speaker : t -> Dbgp_types.Asn.t -> Dbgp_core.Speaker.t
(** @raise Not_found if the AS is not in the network. *)

val peer_of : t -> Dbgp_types.Asn.t -> Dbgp_core.Peer.t

val asn_of_addr : t -> Dbgp_types.Ipv4.t -> Dbgp_types.Asn.t option
(** Reverse lookup from a speaker address (as found in FIB next hops). *)

val link :
  t ->
  ?latency:float ->
  ?a_export:Dbgp_core.Filters.t ->
  ?b_export:Dbgp_core.Filters.t ->
  ?a_dbgp:bool ->
  ?b_dbgp:bool ->
  a:Dbgp_types.Asn.t ->
  b:Dbgp_types.Asn.t ->
  b_is:Dbgp_bgp.Policy.relationship ->
  unit ->
  unit
(** Connects two registered speakers. [b_is] is the relationship of [b]
    seen from [a] ([To_customer] = b is a's customer); the inverse side
    is derived.  [same_island] is inferred by comparing the speakers'
    configured islands.  The configuration is retained so the link can
    be restored by {!recover_link} after a failure.
    @raise Invalid_argument on a self-loop. *)

val link_up : t -> Dbgp_types.Asn.t -> Dbgp_types.Asn.t -> bool

val fail_link : t -> Dbgp_types.Asn.t -> Dbgp_types.Asn.t -> unit
(** Takes the link down.  Pending MRAI batches for the pair are discarded
    and in-flight messages are dropped on arrival.  Without graceful
    restart both speakers drop the session's routes and re-converge
    immediately; with it (see {!set_graceful_restart}) routes are
    retained as stale for the restart window and only the leftovers are
    flushed when it closes. *)

val recover_link : t -> Dbgp_types.Asn.t -> Dbgp_types.Asn.t -> unit
(** Brings a failed link back with its original configuration.  When the
    session re-establishes inside a still-open graceful-restart window,
    the pending stale flush is cancelled (RFC 4724's restart-timer stop)
    and both directions stream an incremental table transfer: chunked
    walks over each sender's Loc-RIB (512 routes per event) batched
    through the normal MRAI/dispatch path, ending in an End-of-RIB that
    clears the receiver's remaining stale marks (scheduled only while
    the receiver still holds stale routes from the sender) — only routes
    whose advertised state differs from the peer's confirmed Adj-RIB-Out
    record travel.  Outside a window (no graceful mode, or the window
    expired and the stale routes were already flushed) the same transfer
    runs as a full route refresh: each sender first marks every record
    toward the peer unconfirmed ({!Dbgp_core.Speaker.unconfirm_peer}),
    so its whole table travels and every record no longer backed by a
    route is withdrawn.  No-op if the link is already up.
    @raise Invalid_argument if the pair was never linked. *)

val unlink : t -> Dbgp_types.Asn.t -> Dbgp_types.Asn.t -> unit
(** Permanent administrative teardown, as opposed to {!fail_link}'s
    session loss: the stored configuration is forgotten (the link cannot
    be {!recover_link}ed) and both speakers run
    {!Dbgp_core.Speaker.remove_neighbor}, leaving no Adj-RIB-In routes,
    Adj-RIB-Out state, stale marks, group membership or flap-damping
    memory for the peer.
    @raise Invalid_argument if the pair was never linked. *)

val schedule_flap :
  t -> down_at:float -> up_at:float ->
  Dbgp_types.Asn.t -> Dbgp_types.Asn.t -> unit
(** Schedules a {!fail_link} at [down_at] and the matching
    {!recover_link} at [up_at] (absolute simulation times).
    @raise Invalid_argument unless [down_at < up_at]. *)

val refresh_all : t -> unit
(** Schedules a route refresh in both directions of every up link — a
    recovery sweep after a lossy phase.  Each is the table transfer of
    {!recover_link} run as a full refresh: every route is re-sent, and
    a withdraw the lossy phase dropped is sent again. *)

val set_fault_model : t -> Fault_model.t -> unit
(** Attach a fault model; its loss/jitter/corruption/duplicate/reorder
    decisions apply to every subsequently delivered frame, drawn in that
    order: drop, then duplicate, then corruption for each copy.  A
    corrupted frame's bytes are bit-damaged (or truncated) by the model
    before {!Dbgp_core.Speaker.receive_wire} decodes them under the
    RFC 7606 ladder; a duplicated frame is handed to the receiving
    speaker twice; a reordered message picks up extra delivery delay. *)

val set_graceful_restart : t -> float option -> unit
(** Set the graceful-restart window (RFC 4724 style) used by
    {!fail_link}; [None] (the default) restores immediate flushing.
    @raise Invalid_argument on a non-positive window. *)

val set_damping : t -> Dbgp_bgp.Flap_damping.params option -> unit
(** Enable route-flap damping (RFC 2439) on every registered speaker.
    Reuse timers are serviced automatically through the event queue. *)

val set_change_feed :
  t ->
  (asn:Dbgp_types.Asn.t ->
  prefix:Dbgp_types.Prefix.t ->
  at:float ->
  fingerprint:int ->
  unit)
  option ->
  unit
(** Subscribe to every Loc-RIB change across the network: the callback
    fires (synchronously, from inside the deciding speaker's [process])
    each time any speaker's best route for a prefix changes, carrying the
    simulator timestamp and the speaker's new
    {!Dbgp_core.Speaker.loc_fingerprint} for that prefix.  The
    oscillation detector ({!Dbgp_eval.Stability}) is built on this feed.
    Only speakers registered at call time are wired; [None] unsubscribes.
    *)

val reevaluate : t -> Dbgp_types.Asn.t -> Dbgp_types.Prefix.t -> unit
(** Schedule a decision-process re-run for one prefix at one AS (delay
    0), redistributing any resulting updates.  Used by out-of-band
    control loops — e.g. the Wiser load-feedback gadget re-advertising
    after a cost change that no BGP message carried. *)

val set_mrai : t -> float -> unit
(** Minimum route-advertisement interval: with a positive MRAI, messages
    to each neighbor are batched per prefix and only the latest state is
    delivered every interval — BGP's standard churn dampener, and the
    "flexibility in choosing the rate at which to disseminate
    advertisements" Section 3.5 leans on.  Default 0 (immediate).

    Every message crosses the wire as a {!Dbgp_core.Codec.frame}: encoded
    by the sender (amortised by the encode cache), decoded by the
    receiver's {!Dbgp_core.Speaker.receive_wire} (amortised by the
    decode memo).  With MRAI 0 each message leaves alone as a one-prefix
    frame.  An MRAI flush partitions its messages into attribute buckets
    ({!Dbgp_core.Ia.same_attrs}): each bucket leaves as one frame — one
    attribute block plus an NLRI list — and the flush's withdraws leave
    as one withdraw frame.  Frames of two or more prefixes are counted
    as [net.batch.frames], the per-prefix messages they replace as
    [net.batch.saved], and their sizes in the
    [net.batch.prefixes_per_frame] histogram.

    A positive MRAI also batches on the receive side: arriving frames
    are only ingested into the speaker's dirty-prefix pipeline, and one
    drain per speaker per interval runs the decision process once per
    dirty prefix — however many updates arrived in between (the saving is
    visible as the speakers' [pipeline.runs_saved] counter).
    @raise Invalid_argument on negative values. *)

val set_wire_delivery : t -> bool -> unit
(** Kept for callers that ask for wire delivery: every message already
    crosses the wire as bytes (see {!set_mrai}), so [true] does nothing.
    @raise Invalid_argument on [false] — there is no in-memory path. *)

val set_batching : t -> bool -> unit
(** Kept for callers that ask for attribute-bucketed frames: every MRAI
    flush already buckets (see {!set_mrai}), so [true] does nothing.
    @raise Invalid_argument on [false] — there is no per-message flush. *)

val originate : t -> Dbgp_types.Asn.t -> Dbgp_core.Ia.t -> unit
(** Locally originate a route at the AS and schedule its announcements. *)

val withdraw_origin : t -> Dbgp_types.Asn.t -> Dbgp_types.Prefix.t -> unit
(** Schedule {!Dbgp_core.Speaker.withdraw_origin} at the AS (delay 0),
    dispatching the resulting withdrawals — how a hijack is called off. *)

val readvertise_all : t -> Dbgp_types.Asn.t -> unit
(** Schedule {!Dbgp_core.Speaker.readvertise_all} at the AS (delay 0):
    re-derives every advertisement under the speaker's current export
    rule.  Announces what a freshly-leaking AS now exports, and withdraws
    the leaks once the rule is restored. *)

val set_interposer :
  t ->
  (from:Dbgp_types.Asn.t -> to_:Dbgp_types.Asn.t -> Dbgp_core.Speaker.msg ->
   Dbgp_core.Speaker.msg option) option ->
  unit
(** Install (or clear, with [None]) an adversarial egress interposition
    hook: every message is passed through it at send time, before MRAI
    batching and the wire.  Returning a different message models a
    compromised AS tampering with pass-through data it forwards (counted
    as [net.adversary.tampered]); returning [None] silently suppresses
    the message ([net.adversary.dropped]).  The hook sees all traffic —
    implementations gate on [from] to compromise specific ASes. *)

val inject : t -> from:Dbgp_core.Peer.t -> to_:Dbgp_types.Asn.t ->
  Dbgp_core.Speaker.msg -> unit
(** Hand an arbitrary message to the speaker as if [from] had sent it
    (attack and fault-injection tests).  It models a compromised
    speaker's own message, not a delivery: it skips the link, the MRAI
    batch and the fault model, but still crosses the codec — encoded
    and decoded by {!Dbgp_core.Speaker.receive} like every receive. *)

val run : ?max_events:int -> t -> stats
(** Run to quiescence. *)

val stats_now : t -> events:int -> exhausted:bool -> stats
(** Current accounting without running anything — for callers (the
    sharded engine) that drive the event queue themselves and track
    event counts and budget exhaustion externally. *)

(** {1 Cross-partition execution (sharded runs)}

    A {!Dbgp_eval}-level shard engine splits one topology across
    several [Network.t] instances, one per region, each owned by one
    OCaml domain.  A cut peering edge becomes two {e half links}: each
    side installs its local speaker's neighbor entry, the latency, and
    a remote peer stub; egress to a remote AS is handed to the
    {!set_remote_hook} callback (with its precomputed arrival time)
    instead of the local event queue, and ingress arrives via
    {!deliver_remote} when the owning domain drains its mailboxes at
    an epoch boundary.

    Cross-cut semantics are deliberately restricted so that no shared
    state or cross-domain call exists: no fault model on cut links (the
    partitioner pins fault-carrying links intra-region), no
    sender-side MRAI coalescing (each message ships individually with
    the MRAI interval added to its arrival delay — preserving the
    conservative lookahead), no graceful restart across the cut, and
    recovery resynchronizes by full route refresh. *)

val set_remote_hook :
  t ->
  (from:Dbgp_types.Asn.t ->
  to_:Dbgp_types.Asn.t ->
  at:float ->
  Dbgp_core.Speaker.msg ->
  unit)
  option ->
  unit
(** Install the shard engine's egress callback.  [at] is the absolute
    simulated arrival time at the destination (send time + MRAI
    interval if any + link latency), always at least one lookahead
    ahead of the sending region's clock. *)

val half_link :
  t ->
  ?latency:float ->
  ?export:Dbgp_core.Filters.t ->
  ?remote_dbgp:bool ->
  ?same_island:bool ->
  local:Dbgp_types.Asn.t ->
  remote:Dbgp_types.Asn.t ->
  remote_is:Dbgp_bgp.Policy.relationship ->
  unit ->
  unit
(** Install the local half of a cut edge: [export] is the local
    speaker's egress filter, [remote_is] the remote AS's relationship
    as seen locally.  The remote region must install the mirror half
    with the inverse relationship and identical latency.
    @raise Invalid_argument on a self-loop. *)

val fail_half : t -> Dbgp_types.Asn.t -> Dbgp_types.Asn.t -> unit
(** Session loss on a cut edge, local side only.  The shard engine
    schedules the same event at the same time in the remote region, so
    both halves act in lockstep.  Immediate flush (no graceful restart
    across the cut); pending MRAI batches toward the peer are
    discarded with sender notification. *)

val recover_half : t -> Dbgp_types.Asn.t -> Dbgp_types.Asn.t -> unit
(** Bring a failed half link back and schedule a full route refresh
    toward the remote peer — {!recover_link}'s table transfer, in one
    direction.  No-op if already up.
    @raise Invalid_argument if the pair was never half-linked. *)

val deliver_remote :
  t ->
  from:Dbgp_types.Asn.t ->
  to_:Dbgp_types.Asn.t ->
  Dbgp_core.Speaker.msg ->
  Dbgp_types.Prefix.t option
(** Ingest one cross-partition arrival (called from an event scheduled
    at the arrival time carried by the mailbox entry).  Returns
    [Some prefix] when the half link was down at arrival and the
    message died — the shard engine must route that as a NACK back to
    the sending region, where {!apply_nack} repairs the sender's
    Adj-RIB-Out confirmed bits. *)

val apply_nack :
  t ->
  local:Dbgp_types.Asn.t ->
  remote:Dbgp_types.Asn.t ->
  Dbgp_types.Prefix.t ->
  unit
(** The sending-region side of a cross-cut drop: mark [prefix] as
    undelivered on [local]'s Adj-RIB-Out toward [remote].
    Time-independent, so sound to apply at mailbox-drain time, one
    epoch after the drop. *)

val asns : t -> Dbgp_types.Asn.t list

val stale_total : t -> int
(** Stale (graceful-restart retained) routes across all speakers —
    should be zero once every restart window has closed. *)

(** {1 Observability}

    The network owns a metrics registry ([net.messages],
    [net.announce_bytes], [net.withdrawals], [net.dropped],
    [net.mrai_flushes], [net.mrai_batched], [net.corruption.injected],
    [net.corruption.survived], and the [net.msg_bytes]
    histogram) and a wire-level event trace ({!Dbgp_obs.Trace}:
    update sent/received, MRAI flushes).  Each speaker additionally owns
    its own registry and trace (see {!Dbgp_core.Speaker.metrics}). *)

val metrics : t -> Dbgp_obs.Metrics.t
val trace : t -> Dbgp_obs.Trace.t

val counter_total : t -> string -> int
(** Sum of one named counter across every speaker's registry (0 when no
    speaker has it). *)

val convergence_times : t -> float list
(** Per-speaker time of the last best-path change, sorted ascending, for
    speakers whose decision process changed at least once — the raw
    distribution behind convergence-time percentiles. *)

val snapshot : ?recent_events:int -> t -> Dbgp_obs.Snapshot.t
(** Aggregate JSON-ready snapshot: simulation clock, the network
    registry, per-speaker counter totals, and convergence-time
    percentiles.  With [recent_events > 0] the last that many trace
    events are included under ["trace"]. *)

