(** Flat longest-prefix-match index from prefixes to next-hop addresses.

    The forwarding view beside {!Prefix_trie}: where the trie is a
    persistent store that also answers LPM, this is a write-once,
    read-many table built for lookups alone.  Two flat [int] arrays
    (packed prefix keys and next-hop addresses) form an open-addressing
    hash table with linear probing, kept at most half full, plus the
    prefix lengths present in descending order.  A lookup probes each
    present length deepest first and stops at the first hit, so a
    table of /24s answers in one probe: two cache lines, no pointer
    chasing. *)

type t

val create : int -> t
(** [create n] is an empty index sized to hold [n] bindings without
    growing; it still grows past that. *)

val add : t -> Dbgp_types.Prefix.t -> Dbgp_types.Ipv4.t -> unit
(** Bind a prefix to a next hop, replacing any earlier binding for the
    exact prefix. *)

val find : t -> Dbgp_types.Ipv4.t -> Dbgp_types.Ipv4.t option
(** The next hop of the most-specific bound prefix containing the
    address, or [None] when no bound prefix contains it. *)

val cardinal : t -> int

val capacity : t -> int
(** Number of slots; always a power of two, at least twice
    {!cardinal}. *)

val home : t -> Dbgp_types.Prefix.t -> int
(** The slot a prefix's probe chain starts at, in [\[0, capacity t)].
    Exposed so tests can build chains that wrap past the last slot. *)
