(** Post-chaos safety invariants.

    After a fault schedule has run to quiescence, the surviving routing
    state must still be {e safe}, whatever the faults did to liveness:

    - the data plane is loop-free (following FIB next hops toward the
      destination never revisits an AS);
    - no best route points at a peer whose link is down — a cut link can
      cost reachability, never a route through the cut;
    - the RIB's chosen best path and the FIB agree on the next hop;
    - no stale (graceful-restart retained) route outlives every restart
      window;
    - pass-through control information survives verbatim: a descriptor
      of a protocol no transit AS understands must arrive byte-identical
      at every AS that selected the route (Section 3.2's core promise,
      which corruption + salvage must not silently break).

    The checker is read-only and runs over a quiesced {!Dbgp_netsim.Network}. *)

type violation =
  | Forwarding_loop of int
      (** This AS's data-plane walk toward the destination cycles. *)
  | Route_via_down_link of int * int
      (** (asn, peer): the best route points at a peer whose link is down. *)
  | Rib_fib_mismatch of int
      (** The FIB next hop disagrees with the RIB's chosen best path. *)
  | Passthrough_mutated of int
      (** The expected pass-through descriptor is missing or altered. *)
  | Stale_leak of int * int
      (** (asn, routes): stale routes survived past every restart window. *)
  | Orphan_adj_out of int * int
      (** (asn, peer): Adj-RIB-Out state (advertised routes or group
          membership) toward someone who is not a neighbor. *)
  | Orphan_adj_in of int * int
      (** (asn, peer): Adj-RIB-In routes from a removed peer. *)
  | Orphan_flap of int * int
      (** (asn, peer): flap-damping memory for an administratively
          removed peer (legitimate after a mere session loss, so only
          {!peer_clean} reports it). *)
  | Orphan_stale of int * int
      (** (asn, peer): stale marks for a removed peer. *)
  | Origin_mismatch of int * int
      (** (asn, origin): the selected route claims an origin other than
          the prefix's ground-truth owner — a hijacked announcement. *)
  | Valley_export of int * int
      (** (asn, peer): a peer/provider-learned route sits in the
          Adj-RIB-Out toward another peer or provider — a route leak,
          flagged at the leaking AS. *)
  | Forged_island_descriptor of int
      (** The selected route carries an island descriptor that differs
          from ground truth (forged or tampered in transit). *)
  | Forged_adjacency of int * int * int
      (** (asn, x, y): the selected route's path claims consecutive ASes
          x and y are adjacent, but no such link exists — a forged-path
          hijack. *)
  | Refcount_drift of int * int * int
      (** (table slot, refcount, stored references): a resident
          attribute set whose refcount is not the number of routes
          referencing it — a leak when higher, a premature eviction when
          lower.  Slot -1 counts references to sets already evicted. *)

type report = {
  speakers : int;           (** speakers examined *)
  with_route : int;         (** speakers holding a best route for the prefix *)
  violations : violation list;
}

val check :
  ?expect_descriptor:Dbgp_types.Protocol_id.t * string * Dbgp_core.Value.t ->
  prefix:Dbgp_types.Prefix.t ->
  dest:Dbgp_types.Ipv4.t ->
  Dbgp_netsim.Network.t ->
  report
(** [expect_descriptor (proto, field, value)] enables the pass-through
    check: every speaker whose best route for [prefix] came from a peer
    must carry that exact descriptor value. *)

val ok : report -> bool

(** {1 Adversary detection predicates}

    Read-only ground-truth checks over a quiesced network, used by the
    adversary harness ({!Dbgp_eval.Adversary}): each returns the empty
    list on honest converged state and fires under the matching attack
    class. *)

val origin_mismatches :
  Dbgp_netsim.Network.t ->
  prefix:Dbgp_types.Prefix.t ->
  owner:Dbgp_types.Asn.t ->
  violation list
(** Every speaker whose selected route for any prefix subsumed by
    [prefix] claims an origin other than [owner] ({!Origin_mismatch}).
    Catches both origin-forgery and sub-prefix hijacks. *)

val valley_violations : Dbgp_netsim.Network.t -> violation list
(** Every (speaker, neighbor) pair where a peer/provider-learned route is
    advertised toward another peer or provider ({!Valley_export}) —
    the Gao-Rexford valley-free walk over actual Adj-RIB-Out state. *)

val forged_island_descriptors :
  Dbgp_netsim.Network.t ->
  prefix:Dbgp_types.Prefix.t ->
  island:Dbgp_types.Island_id.t ->
  proto:Dbgp_types.Protocol_id.t ->
  field:string ->
  expected:Dbgp_core.Value.t option ->
  violation list
(** Every speaker whose selected route for [prefix] carries an island
    descriptor ([island], [proto], [field]) differing from [expected]
    ([None] = legitimately absent, so presence alone is a forgery). *)

val forged_adjacencies :
  Dbgp_netsim.Network.t -> prefix:Dbgp_types.Prefix.t -> violation list
(** Path plausibility against topology ground truth: every consecutive AS
    pair on a selected path (for prefixes subsumed by [prefix]) must be
    an actual link ({!Forged_adjacency} otherwise).  Catches forged-path
    hijacks, which defeat pure origin validation.  Only sound when paths
    carry no island abstractions. *)

val forged_candidates :
  Dbgp_netsim.Network.t ->
  prefix:Dbgp_types.Prefix.t ->
  owner:Dbgp_types.Asn.t ->
  violation list
(** The same origin and adjacency ground-truth checks applied to the
    Adj-RIB-In candidates for exactly [prefix] — what neighbors actually
    announced, before import policy rejects anything.  This is where a
    {e contained} hijack is still visible: the first validating speaker
    holds the forged candidate it refused to select. *)

val refcounts : Dbgp_core.Speaker.t list -> violation list
(** {!Refcount_drift} for every resident set of the calling domain's
    {!Dbgp_core.Attr_table} whose refcount differs from the references
    the speakers' Adj-RIB-In, originations and Loc-RIB hold
    ({!Dbgp_core.Speaker.iter_attr_refs}).  Sound only when these
    speakers hold every reference in the domain — reset the table
    ({!Dbgp_core.Attr_table.reset}) before building them. *)

val network_refcounts : Dbgp_netsim.Network.t -> violation list
(** {!refcounts} over every speaker of the network. *)

val peer_clean : Dbgp_core.Speaker.t -> Dbgp_core.Peer.t -> violation list
(** Post-teardown cleanliness for one (speaker, ex-peer) pair: after
    {!Dbgp_core.Speaker.remove_neighbor} nothing of the peer may remain
    in any pipeline stage — Adj-RIB-In routes, stale marks, Adj-RIB-Out
    state, peer-group membership — nor in the flap-damping memory.
    Empty = clean. *)

val pp_violation : Format.formatter -> violation -> unit
val pp : Format.formatter -> report -> unit

val to_snapshot : report -> Dbgp_obs.Snapshot.t
(** JSON-ready: speaker counts, per-kind violation counters, and the
    violation list rendered as strings. *)
