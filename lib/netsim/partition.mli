(** Greedy min-cut partitioning of a peering graph into regions.

    Each region of a sharded simulation is owned by one OCaml domain,
    so the partitioner optimizes three things at once: balanced region
    sizes, few cut edges (every cut edge becomes cross-domain mailbox
    traffic), and a slow cut (the conservative lookahead is the
    minimum latency across the cut, so severing only long-haul links
    keeps epochs long and barriers rare).

    Island-aware: connected components are placed whole when they fit
    the balance target — an island contributes zero cut edges — and
    only oversized components are split, by greedy graph growing from
    a periphery seed.  Deterministic: equal inputs produce equal
    partitions (all tie-breaks are by index). *)

type t

val build :
  ?pinned:(int * int) list ->
  nodes:int array ->
  edges:(int * int * float) array ->
  regions:int ->
  unit ->
  t
(** [build ~nodes ~edges ~regions ()] partitions the undirected graph
    into at most [regions] non-empty regions.  [edges] entries are
    [(a, b, latency)]; parallel edges keep the minimum latency;
    self-loops are ignored.  [pinned] edges are contracted first: both
    endpoints always land in the same region (the fault injector pins
    links it intends to flap so fault state stays region-private).
    @raise Invalid_argument if [regions < 1] or an edge endpoint is
    not in [nodes]. *)

val regions : t -> int
(** Actual region count: at least 1, at most the requested count, and
    never more than the node count. *)

val region_of : t -> int -> int
(** Region index of a node.  @raise Invalid_argument for unknown nodes. *)

val members : t -> int -> int array
(** Sorted nodes of a region. *)

val cut_edges : t -> (int * int * float) array
(** Edges whose endpoints landed in different regions. *)

val lookahead : t -> float
(** Minimum latency over {!cut_edges}; [infinity] when nothing is cut
    (single region, or regions are unions of whole islands). *)
