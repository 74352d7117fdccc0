(** Refcounted shared attribute-set table — the one identity layer of
    the compact route store.

    Attribute sets (everything in an IA except the prefix) repeat
    massively across a routing table.  A set is identified once, where
    it enters a speaker: {!share} hashes it, finds or inserts its
    {!entry} and takes one reference.  Every store of the speaker —
    Adj-RIB-In, local originations, Loc-RIB — then holds the entry, and
    the prefix is the store's key, so a stored route is the pair
    (prefix, entry); {!route} rebuilds its IA on demand.

    An entry is the canonical set plus one word (its hash and refcount).
    Resident entries are unique per set, so {!same} is a pointer compare
    between them, and {!release} is a decrement after a pointer probe
    from the entry's stored home slot: the set is never hashed or
    compared again once it is stored.

    Refcounting governs table membership only, never memory safety: an
    entry that has left the table (evicted at refcount zero, or resident
    at a {!reset}) is still a valid
    value for whoever holds it.  {!Speaker} owns the acquire/release
    discipline; {!audit} checks it.

    Domain-local: each OCaml 5 domain shares within itself, lock-free,
    and ignores acquires and releases of another domain's entries.
    The table has no cap: it doubles at half load and an entry leaves
    it at refcount zero, so residency is bounded by the references that
    stored routes hold.

    Counters ([attr_table.hits]/[.misses]/[.evictions]) and
    the [attr_table.occupancy] gauge live in the calling domain's
    registry, {!metrics}. *)

type entry
(** One attribute set as a route stores it: the canonical set, its hash
    and its refcount (three words). *)

val share : Ia.t -> entry
(** Identify the IA's attribute set and take one reference to it: the
    resident entry for an equal set, or a new one (refcount 1). *)

val share_like : entry -> Ia.t -> entry
(** [share_like hint ia]: one reference to [hint] when [ia]'s attribute
    fields are physically [hint]'s (an IA built by {!route} that no
    filter rewrote) — no hash, no structural compare — and {!share}
    otherwise. *)

val acquire : entry -> bool
(** Take one more reference to a resident entry — no hash, no compare —
    and answer [true]; [false], taking nothing, when the entry is not
    resident in the calling domain's table (the caller then shares the
    set afresh). *)

val release : entry -> unit
(** Drop one reference.  At zero the entry leaves the table
    ([attr_table.evictions]).  A no-op for an entry that is not resident
    in the calling domain's table. *)

val route : entry -> Dbgp_types.Prefix.t -> Ia.t
(** The route's IA: the canonical set re-pointed at [prefix] with
    {!Ia.with_prefix} (the canonical IA itself when the prefix matches). *)

val same : entry -> entry -> bool
(** Equality of the sets: a pointer compare between two entries
    resident in the calling domain's table, {!Ia.same_attrs} when either
    is not. *)

val refcount : Ia.t -> int option
(** Current reference count of the IA's attribute set, if resident
    (tests). *)

type drift = { slot : int; refcount : int; references : int }
(** A resident set, named by its table slot, whose refcount is not the
    number of stored references to it; [slot = -1] counts references to
    evicted sets. *)

val audit : ((entry -> unit) -> unit) -> drift list
(** [audit iter]: [iter f] must call [f] once per stored reference (every
    route of every speaker in the calling domain).  Returns every
    resident set whose refcount differs from its references, ascending
    by slot — empty when the discipline holds. *)

val descriptor_stats : unit -> Dbgp_types.Intern.stats
(** The calling domain's table of descriptor lists: a set new to the
    attribute table takes an equal descriptor list another set already
    holds, so distinct paths with the same next hop and origin store
    their descriptors once. *)

val occupancy : unit -> int
(** Resident attribute sets in the calling domain's table. *)

val metrics : unit -> Dbgp_obs.Metrics.t
(** The calling domain's [attr_table.*] registry. *)

val reset : unit -> unit
(** Empty the table and zero its registry.  Entries resident until now
    stay valid for their holders but leave the table: releasing them is
    a no-op and {!same} compares them structurally. *)
