(** Adj-RIB-Out: stage 3 of the RIB pipeline.

    Two concerns of the egress edge:

    - {e peer groups}: neighbors with identical egress identity
      (relationship, capability, island class and — physically — the
      same export filter) share a group, so the egress computation
      (export rule, island processing, global + per-neighbor export
      filters, legacy downgrade) runs once per group per route change
      and is fanned out to every member;
    - the per-peer advertised state — what was last announced to each
      neighbor, so withdrawals are sent only for routes actually
      advertised.

    A neighbor's egress state is one {!handle}, created when it joins:
    its group and its advertised-route table.  The fan-out loop works on
    handles directly, so serving a member costs no lookup keyed by the
    peer.  No egress result outlives the fan-out that computed it.
    Sharing one evaluation across a group is sound only for pure export
    filters — every filter in {!Filters} is. *)

type group_key = {
  relationship : Dbgp_bgp.Policy.relationship;
  dbgp_capable : bool;
  same_island : bool;
  export : Filters.t;  (** compared by physical identity *)
}

type t
type handle

val create : unit -> t

(** {1 Peer groups} *)

val join : t -> peer:Peer.t -> group_key -> handle
(** Put the peer in the group matching [key] (creating it if needed) and
    return its handle.  Re-joining keeps the handle and its advertised
    state; a changed key moves it to the matching group, dropping the
    old group if the departure empties it. *)

val leave : t -> peer:Peer.t -> unit
(** Session teardown: remove the peer from its group (a group left empty
    is dropped) and forget everything advertised to it.  The handle is
    dead afterwards; a later {!join} starts from an empty table. *)

val group_of : t -> peer:Peer.t -> int option

val group_id : handle -> int
(** The handle's current group, as {!group_of} names it. *)

(** {1 Group-major evaluation}

    One fan-out is a {e round}.  The first member of a group served in a
    round computes the group's egress result with {!set_result}; every
    later member of the same group reads it back with {!result}. *)

val next_round : t -> unit
(** Start a round: every group's result becomes unevaluated. *)

val evaluated : t -> handle -> bool
(** Whether the handle's group has a result in the current round. *)

val result : handle -> Ia.t option
(** The group's result for the current round; meaningful only when
    {!evaluated} holds. *)

val set_result : t -> handle -> Ia.t option -> unit

(** {1 Advertised state} *)

val record : handle -> Dbgp_types.Prefix.t -> Ia.t option -> unit
(** [Some ia]: we announced [ia]; [None]: we withdrew (or never had
    anything advertised — the entry is removed).  The caller's option
    box is stored as-is.  Recording is optimistic: it clears any loss
    mark on [prefix], so the entry is confirmed (sent ⇒ delivered) until
    the transport reports otherwise via {!note_failed}. *)

val find : handle -> Dbgp_types.Prefix.t -> (Ia.t option * bool) option
(** The recorded [(out, confirmed)] state for [prefix], if any.
    [out = None] is a withdraw tombstone. *)

val advertised : handle -> Dbgp_types.Prefix.t -> bool
(** Whether any entry (tombstones included) is recorded for [prefix]. *)

val unbacked :
  handle -> backed:(Dbgp_types.Prefix.t -> bool) -> Dbgp_types.Prefix.t list
(** The prefixes of the recorded entries — tombstones included — for
    which [backed] is false, in ascending prefix order.  Only those are
    sorted, so a sync tail that finds every record still backed costs
    one unordered pass. *)

val note_failed : t -> peer:Peer.t -> Dbgp_types.Prefix.t -> unit
(** The transport dropped the last message for [prefix] toward [peer]:
    mark [prefix] lost — its entry is unconfirmed until the next
    {!record} — and, for a dropped withdraw whose entry {!record}
    already removed, leave an [out = None] tombstone, so a later
    incremental sync knows the peer may still hold a route we no longer
    advertise.  A drop reported after the peer {!leave}s is ignored: a
    torn-down session leaves the peer holding nothing from us. *)

val unconfirm : t -> peer:Peer.t -> unit
(** Mark every entry recorded toward [peer] lost, as if each last
    message had been dropped: the peer is treated as holding nothing we
    can confirm, so the next incremental sync re-sends every route and
    withdraws every entry no longer backed — a route refresh. *)

val bindings : t -> peer:Peer.t -> (Dbgp_types.Prefix.t * Ia.t) list
val peers : t -> Peer.t list
(** Peers with at least one recorded entry, ascending. *)

val holders : t -> int
(** The number of peers with at least one recorded entry (tombstones
    included): [0] means a withdraw toward any member is a no-op.  Each
    group keeps its own count up to date on every write, so this costs
    O(groups). *)

(** Probes of the group table, for the tests that pin its life cycle. *)
module For_tests : sig
  val group_count : t -> int
  (** Live peer groups; a group left empty is dropped at once. *)
end
