(** Mutable tables keyed by non-negative ints: packed prefixes
    ({!Prefix.Tbl} is this table), ASNs, addresses and packed pairs of
    them.

    Open addressing over a flat key array and a flat payload array,
    with linear probing from a Fibonacci (multiplicative, top-bits)
    home slot, so every key family in use (sequential or strided /24s,
    sequential ASNs, packed ASN pairs) spreads evenly.  The capacity is
    a power of two and the table grows at 7/8 load.  A lookup allocates
    nothing but the [Some] of a {!S.find_opt} hit, an insert allocates
    nothing until the table grows, and a removal leaves no tombstone.
    Nothing depends on [OCAMLRUNPARAM=R]: the layout, and so the
    iteration order, is a function of the table's history alone. *)

module type S = sig
  type key
  type 'a t

  val create : int -> 'a t
  (** [create n] is an empty table that holds [n] bindings without
      growing. *)

  val length : 'a t -> int
  (** The number of bindings. *)

  val find : 'a t -> key -> 'a
  (** @raise Not_found if the key is unbound. *)

  val find_opt : 'a t -> key -> 'a option
  val mem : 'a t -> key -> bool

  val replace : 'a t -> key -> 'a -> unit
  (** Bind the key, replacing any earlier binding.
      @raise Invalid_argument on a negative key. *)

  val remove : 'a t -> key -> unit
  (** Drop the key's binding, if any.  The table does not keep the
      dropped payload reachable. *)

  val reset : 'a t -> unit
  (** Drop every binding and shrink back to the capacity {!create}
      chose, so a later walk costs what the table holds. *)

  val iter : (key -> 'a -> unit) -> 'a t -> unit
  (** In slot order, which depends on the keys and the table's history,
      not on key order.  [f] may replace bindings; it must not remove
      any. *)

  val fold : (key -> 'a -> 'acc -> 'acc) -> 'a t -> 'acc -> 'acc
  (** In slot order, as {!iter}. *)
end

include S with type key = int

(** Layout probes for tests. *)
module For_tests : sig
  val capacity : 'a t -> int
  (** Number of slots; a power of two. *)

  val home : 'a t -> int -> int
  (** The slot a key's probe chain starts at, in [\[0, capacity t)]. *)

  val mean_probe : 'a t -> float
  (** The mean number of slots a successful lookup reads, over the
      bindings present: 1.0 when every key sits at its home slot. *)
end
