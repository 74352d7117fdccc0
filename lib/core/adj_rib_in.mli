(** Adj-RIB-In: stage 1 of the RIB pipeline.

    The per-(prefix, peer) store of post-import routes — what each peer
    currently advertises — plus the graceful-restart stale marks of
    RFC 4724 (routes retained through a peer restart until refreshed or
    flushed).  Polymorphic in the route type so both the D-BGP speaker
    (IAs) and the plain-BGP stress arm (attribute candidates) share one
    representation.

    Iteration orders are deterministic: prefixes ascend by
    [Prefix.compare], peers by [Peer.compare]. *)

type 'r t

val create : unit -> 'r t
val set : 'r t -> peer:Peer.t -> Dbgp_types.Prefix.t -> 'r -> unit
val remove : 'r t -> peer:Peer.t -> Dbgp_types.Prefix.t -> unit
val find : 'r t -> peer:Peer.t -> Dbgp_types.Prefix.t -> 'r option

val candidates : 'r t -> Dbgp_types.Prefix.t -> (Peer.t * 'r) list
(** Every peer's current route for the prefix, ascending by peer. *)

val prefixes_of : 'r t -> peer:Peer.t -> Dbgp_types.Prefix.t list
(** The prefixes the peer currently has a route for, ascending. *)

val has_routes : 'r t -> peer:Peer.t -> bool

val drop_peer : 'r t -> peer:Peer.t -> Dbgp_types.Prefix.t list
(** Session loss: removes every route and stale mark of the peer and
    returns the affected prefixes, ascending. *)

val iter : 'r t -> (Dbgp_types.Prefix.t -> Peer.t -> 'r -> unit) -> unit
(** Every stored route, in no particular order. *)

val prefixes : 'r t -> Dbgp_types.Prefix.Set.t
val size : 'r t -> int
(** Total stored routes across all (prefix, peer) pairs. *)

(** {1 Graceful-restart stale marks (RFC 4724)} *)

val mark_stale : 'r t -> peer:Peer.t -> int
(** Mark every route currently held from the peer as stale (merging with
    any existing marks).  Returns the size of the peer's resulting stale
    set; [0] when the peer holds no routes (nothing marked). *)

val clear_stale : 'r t -> peer:Peer.t -> Dbgp_types.Prefix.t -> unit
val is_stale : 'r t -> peer:Peer.t -> Dbgp_types.Prefix.t -> bool
val has_stale : 'r t -> peer:Peer.t -> bool

val take_stale : 'r t -> peer:Peer.t -> Dbgp_types.Prefix.t list
(** Remove the peer's stale marks and return their prefixes, ascending
    (empty if none) — closing a restart window.  The list's length is
    the number of marks closed. *)

val stale_count : 'r t -> int
(** Stale marks across all peers. *)
