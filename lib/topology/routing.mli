(** Destination-rooted, policy-compliant route computation.

    A generic path-vector propagation engine over an {!As_graph.t}: routes
    to a destination flow outward exactly as path advertisements do,
    subject to the Gao-Rexford valley-free export rule, with each AS
    selecting its best candidate under a caller-supplied preference.

    Only tests call it: it is their reference model of policy-compliant
    propagation (and of the valley-free check).  The Section 6.3 benefit
    simulations do not use it: [Dbgp_eval.Benefits.propagate] is their
    own engine. *)

(** How a route was learned, which governs who it may be exported to. *)
type klass =
  | Origin         (** I am the destination. *)
  | From_customer  (** Learned from a customer: exportable to everyone. *)
  | From_peer      (** Learned from a peer: exportable to customers only. *)
  | From_provider  (** Learned from a provider: exportable to customers only. *)

type 'a route = {
  path : int list;   (** AS-level path, this AS first, destination last. *)
  klass : klass;
  payload : 'a;      (** Caller-defined metric carried with the route. *)
}

val exportable : klass -> As_graph.view -> bool
(** [exportable k view] — may a route of class [k] be advertised to a
    neighbor standing in [view] to me?  The valley-free rule: customer
    and origin routes go to everyone; peer and provider routes go only to
    my customers. *)

val klass_of_view : As_graph.view -> klass
(** The class a route acquires when learned from a neighbor in [view]. *)

val compute :
  As_graph.t ->
  dest:int ->
  origin:'a ->
  extend:(at:int -> from:int -> 'a -> 'a option) ->
  prefer:(at:int -> 'a route -> 'a route -> int) ->
  'a route option array
(** [compute g ~dest ~origin ~extend ~prefer] runs synchronous
    Bellman-Ford-style rounds until a fixed point (or a round bound of
    [2 * size g], which suffices for monotone preferences and bounds
    pathological ones).  [extend ~at ~from payload] is the metric the AS
    [at] records when accepting a route from neighbor [from]; [None]
    rejects the candidate.  [prefer ~at a b > 0] means [a] is strictly
    better at AS [at].  Loops are rejected by the engine (path-vector
    rule).  The result maps each AS to its selected route, [None] if the
    destination is unreachable under policy. *)

val shortest_path_prefer : at:int -> 'a route -> 'a route -> int
(** The paper's simulator preference for non-upgraded ASes: shorter AS
    path wins; ties broken toward the lower next-hop id (deterministic,
    mirroring lowest-router-id tie-breaking). *)

val classful_prefer : at:int -> 'a route -> 'a route -> int
(** Full Gao-Rexford preference: customer > peer > provider, then
    shortest path, then lowest next hop.  Used by hand-built scenario
    topologies that do model business preference. *)

val is_valley_free : As_graph.t -> int list -> bool
(** Is this AS path (source first) compliant: uphill steps, at most one
    peer step, then downhill steps? *)
