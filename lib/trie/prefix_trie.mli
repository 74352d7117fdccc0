(** Immutable binary radix trie keyed by IPv4 prefixes.

    The storage structure behind every RIB and FIB in this codebase, in
    the role Quagga's route tables played for Beagle.  Supports exact
    lookup, longest-prefix match for data-plane forwarding, and ordered
    traversal for RIB dumps.  Persistent so that decision modules can
    snapshot RIB states cheaply. *)

type 'a t

val empty : 'a t
val is_empty : 'a t -> bool

val add : Dbgp_types.Prefix.t -> 'a -> 'a t -> 'a t
(** Replaces any existing binding for the exact prefix. *)

val remove : Dbgp_types.Prefix.t -> 'a t -> 'a t
val find : Dbgp_types.Prefix.t -> 'a t -> 'a option
val mem : Dbgp_types.Prefix.t -> 'a t -> bool

val update :
  Dbgp_types.Prefix.t -> ('a option -> 'a option) -> 'a t -> 'a t
(** [update p f t] applies [f] to the binding at [p]: [f None] to insert,
    [f (Some v)] to change or ([None]) delete. *)

val longest_match : Dbgp_types.Ipv4.t -> 'a t -> (Dbgp_types.Prefix.t * 'a) option
(** The most-specific prefix containing the address — the data plane's
    forwarding lookup. *)

val longest_covering :
  Dbgp_types.Prefix.t -> 'a t -> (Dbgp_types.Prefix.t * 'a) option
(** The most-specific binding whose prefix subsumes the argument (the
    argument itself included).  {!longest_match} is this at /32. *)

val matches : Dbgp_types.Ipv4.t -> 'a t -> (Dbgp_types.Prefix.t * 'a) list
(** Every prefix containing the address, most-specific first. *)

val covered : Dbgp_types.Prefix.t -> 'a t -> (Dbgp_types.Prefix.t * 'a) list
(** All bindings whose prefix is subsumed by the argument. *)

val fold : (Dbgp_types.Prefix.t -> 'a -> 'b -> 'b) -> 'a t -> 'b -> 'b
(** In prefix order (network address, then length). *)

val iter : (Dbgp_types.Prefix.t -> 'a -> unit) -> 'a t -> unit
val cardinal : 'a t -> int
val bindings : 'a t -> (Dbgp_types.Prefix.t * 'a) list
val of_list : (Dbgp_types.Prefix.t * 'a) list -> 'a t
val map : ('a -> 'b) -> 'a t -> 'b t
val filter : (Dbgp_types.Prefix.t -> 'a -> bool) -> 'a t -> 'a t
