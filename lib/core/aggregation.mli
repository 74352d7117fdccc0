(** Prefix aggregation for IAs — and why D-BGP mostly cannot use it.

    Section 3.5: the initial D-BGP design supported proxy aggregation
    but it was removed, because aggregation is barely used today (0.1%%
    of paths) and most analyzed protocols cannot aggregate their control
    information — "BGPSec's attestations cannot be aggregated and it is
    not clear how to aggregate Wiser's path costs".  This module makes
    that concrete: per-protocol {!merge_rule}s say how (or whether) a
    descriptor survives aggregation — BGP's origin takes the worst, its
    next hop must be equal, EQ-BGP's bandwidth takes the min, and
    nothing else aggregates — and {!aggregate} combines two
    sibling IAs into one covering advertisement, path vectors merged
    BGP-style into an AS_SET with ATOMIC_AGGREGATE semantics. *)

(** How one protocol's path descriptor aggregates. *)
type merge_rule =
  | Cannot_aggregate      (** descriptor dropped (BGPSec attestations) *)
  | Take_worst            (** keep the max of two ints (conservative QoS) *)
  | Take_min              (** keep the min (bottleneck bandwidth) *)
  | Must_be_equal         (** keep iff both sides agree *)

val aggregate : Ia.t -> Ia.t -> Ia.t option
(** [aggregate a b] combines two IAs whose prefixes are siblings (the
    two halves of a covering prefix) into one IA for the covering
    prefix: path vectors merged into an AS_SET, descriptors merged per
    rule (dropped under [Cannot_aggregate]), island descriptors kept
    only when identical on both sides.  [None] if the prefixes are not
    siblings. *)

