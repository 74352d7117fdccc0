(** Route policies: the import/export filter language.

    A small route-map language matching Quagga's role for Beagle.  A
    policy is an ordered list of clauses; the first clause whose match
    succeeds decides (permit with actions applied, or deny).  No clause
    matching means deny — the conventional implicit deny.

    {!gao_rexford} builds the standard valley-free business policy from a
    link relationship: customers' routes get the highest local preference
    and are exported to everyone, peer and provider routes are exported
    only to customers. *)

type relationship = To_customer | To_peer | To_provider
(** Who the session talks to, from this AS's point of view. *)

type match_cond =
  | Match_any
  | Match_prefix of Dbgp_types.Prefix.t      (** prefix subsumed by this *)
  | Match_asn_on_path of Dbgp_types.Asn.t
  | Match_community of Attr.community
  | Match_not of match_cond
  | Match_all of match_cond list

type action =
  | Set_local_pref of int
  | Set_med of int
  | Add_community of Attr.community
  | Strip_communities
  | Prepend of Dbgp_types.Asn.t * int  (** prepend the ASN [n] times *)

type clause = { cond : match_cond; permit : bool; actions : action list }

type t = clause list

val apply :
  t -> Dbgp_types.Prefix.t -> Attr.t -> Attr.t option
(** [apply policy prefix attrs] is [Some attrs'] if permitted (actions
    applied in clause order) or [None] if denied. *)

type export_rule = learned:relationship option -> to_:relationship -> bool
(** Relationship-keyed export gate: may a route learned over a session of
    relationship [learned] ([None] = locally originated) be advertised on
    a session of relationship [to_]?  Speakers evaluate this before the
    per-neighbor route-map export filter. *)

val valley_free : export_rule
(** The Gao-Rexford default: customer routes and locally originated
    routes are exported everywhere; peer- and provider-learned routes
    only to customers.  Every path stays valley-free when all ASes
    follow it. *)

val export_all : export_rule
(** Exports everything to everyone — the route-leak behavior.  An AS
    running this re-advertises provider/peer routes to its other
    providers and peers, violating valley-freeness. *)
