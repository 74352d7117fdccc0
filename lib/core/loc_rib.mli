(** Loc-RIB: stage 2 of the RIB pipeline.

    The per-prefix selected best routes plus a forwarding view.  The
    routes live in one {!Dbgp_types.Prefix.Tbl} hashtable keyed by the
    packed prefix, so a write replaces one bucket cell in place and
    allocates nothing when it replaces a route.  The next hop is not
    stored per route — it is a projection of the chosen value (supplied
    at {!create}).

    The ordered walks ({!fold}, {!bindings}, {!fold_range}) read a
    sorted array of the keys, rebuilt lazily by the first walk after
    the key set changed.  The keys added since the last rebuild are
    sorted and merged with the old array in one linear pass, so a
    chunked transfer that interleaves with route changes never
    re-sorts the table; only when the new keys outnumber the sorted
    ones is the whole key set sorted afresh, in linear time once it is
    large ({!Dbgp_types.Prefix.sort}).

    {!next_hop} answers from a flat {!Dbgp_trie.Fib_index} over the
    routes whose projection yields a next hop.  The index is built
    lazily: {!set}/{!remove} drop it, and the first {!next_hop} after a
    write rebuilds it in one unordered pass over the table.  This keeps
    FIB maintenance out of the decision hot path while each lookup
    costs one hash probe per prefix length present.

    Polymorphic in the chosen-route type; a route whose projection
    yields no next hop (locally originated) is selectable but never
    forwarded to, and never shadows a forwardable covering route. *)

type 'c t

val create : ?next_hop:('c -> Dbgp_types.Ipv4.t option) -> unit -> 'c t
(** [next_hop] projects a chosen route to the neighbor address the FIB
    should forward to — [None] (the default for every route when
    omitted) marks it locally originated / not forwardable.  The
    projection must be pure: it is applied when the index is rebuilt,
    not at {!set} time. *)

val set : 'c t -> Dbgp_types.Prefix.t -> 'c -> unit
(** Install (or replace) the chosen route for a prefix. *)

val remove : 'c t -> Dbgp_types.Prefix.t -> unit
val find : 'c t -> Dbgp_types.Prefix.t -> 'c option
val mem : 'c t -> Dbgp_types.Prefix.t -> bool

val bindings : 'c t -> (Dbgp_types.Prefix.t * 'c) list
(** Ascending by prefix. *)

val fold : (Dbgp_types.Prefix.t -> 'c -> 'a -> 'a) -> 'c t -> 'a -> 'a
(** Ascending by prefix.  [f] must not write to the table. *)

val cardinal : 'c t -> int

val fold_range :
  'c t ->
  above:Dbgp_types.Prefix.t option ->
  limit:int ->
  f:(Dbgp_types.Prefix.t -> 'c -> 'a -> 'a) ->
  init:'a ->
  'a * Dbgp_types.Prefix.t option
(** Cursor walk in ascending prefix order: fold over at most [limit]
    routes strictly above [above] ([None] starts from the beginning).
    Returns the accumulator and the cursor to resume from — [None] when
    the table is exhausted.  The backbone of chunked streaming table
    transfer.  [f] must not write to the table; writes between two
    calls are fine.  @raise Invalid_argument when [limit <= 0]. *)

val next_hop : 'c t -> Dbgp_types.Ipv4.t -> Dbgp_types.Ipv4.t option
(** Longest-prefix-match FIB lookup: the next hop of the most-specific
    hop-bearing route containing the address. *)
