(** Flat longest-prefix-match index from prefixes to a payload.

    The one longest-prefix match in this codebase: the Loc-RIB's FIB
    binds next-hop addresses, a data-plane forwarder binds ports.  A
    write-once, read-many table built for lookups alone.  Two flat
    arrays (packed prefix keys and payloads) form an open-addressing
    hash table with linear probing, kept at most half full, plus the
    prefix lengths present in descending order.  A lookup probes each
    present length deepest first and stops at the first hit, so a
    table of /24s answers in one probe: two cache lines, no pointer
    chasing. *)

type 'a t

val create : int -> 'a t
(** [create n] is an empty index sized to hold [n] bindings without
    growing; it still grows past that. *)

val add : 'a t -> Dbgp_types.Prefix.t -> 'a -> unit
(** Bind a prefix to a payload, replacing any earlier binding for the
    exact prefix. *)

val find : 'a t -> Dbgp_types.Ipv4.t -> 'a option
(** The payload of the most-specific bound prefix containing the
    address, or [None] when no bound prefix contains it. *)

val cardinal : 'a t -> int

val capacity : 'a t -> int
(** Number of slots; always a power of two, at least twice
    {!cardinal}. *)

val home : 'a t -> Dbgp_types.Prefix.t -> int
(** The slot a prefix's probe chain starts at, in [\[0, capacity t)].
    Exposed so tests can build chains that wrap past the last slot. *)
