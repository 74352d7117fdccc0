(** Interning for small hot-path values: descriptor values and strings.

    Maps structurally equal values to one physical representative so
    equality checks short-circuit on [==] and a decoded table holds one
    copy of each.  Tables are bounded (reset wholesale at capacity);
    every interned value stays valid after a reset — only future
    sharing is lost — so callers never need to care about residency.

    Attribute sets are identified by {!Dbgp_core.Attr_table}, once per
    set where it enters a speaker; path vectors are not interned.  Value
    interning stays because descriptor values repeat across otherwise
    distinct attribute sets, which the attribute table cannot share.

    The shared string table below is what the codec uses; the {!Make}
    functor builds additional per-type tables (the codec's value
    table).

    Domain-safety: the shared table is domain-local — each OCaml 5
    domain lazily creates its own instance on first use, so sharded
    simulations intern lock-free.  Interning is semantically
    transparent, so per-domain canonicalization is sound: values
    crossing domains merely lose the pointer-equality fast path and fall
    back to structural comparison.  Stats and {!clear_all} refer to the
    calling domain's table. *)

type stats = { hits : int; misses : int; size : int; clears : int }

module type HashedType = sig
  type t

  val equal : t -> t -> bool
  val hash : t -> int
end

module type S = sig
  type value
  type t

  val create : int -> t
  (** [create n] makes a table with initial capacity [n]; when 65536
      entries are reached the table is reset wholesale. *)

  val intern : t -> value -> value
  (** Canonical representative: two structurally equal arguments return
      the same physical value while the table retains the first. *)

  val length : t -> int
  val clear : t -> unit
  val stats : t -> stats
end

module Make (H : HashedType) : S with type value = H.t

val string : string -> string
(** Canonical representative for small repeated strings (descriptor
    field names, protocol names). *)

val path_elem_stats : unit -> stats
(** Always zero: path elements are not interned.  Kept for the
    benchmark (perfbench/bench.ml), which reports it. *)

val path_vector_stats : unit -> stats
(** Always zero: path vectors are not interned.  Kept for the benchmark
    (perfbench/bench.ml), which reports it. *)

val string_stats : unit -> stats
(** The calling domain's string table; the benchmark
    (perfbench/bench.ml) reports it. *)

val clear_all : unit -> unit
(** Empty the string table (tests, and the benchmark
    (perfbench/bench.ml) between set-ups). *)
