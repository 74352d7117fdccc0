(* Interning for small hot-path values.

   Descriptor values and strings (field names, protocol names) repeat in
   every advertisement.  Interning maps structurally equal values to one
   physical representative, so later comparisons of them short-circuit
   on pointer equality and a decoded table holds one copy of each.

   Attribute sets are not interned here: {!Dbgp_core.Attr_table}
   identifies each set once, where it enters a speaker, and routes hold
   that identity.  Path vectors are not interned either: the attribute
   table already shares every stored set, so interning them cell by
   cell on every decode would buy no memory and cost a hash per cell.

   Tables are bounded: when a table reaches [max_size] it is reset
   wholesale.  A reset only costs future sharing — every value handed
   out remains valid and immutable — so correctness never depends on
   residency.  Resets are counted in [stats.clears]. *)

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
  val intern : t -> value -> value
  val length : t -> int
  val clear : t -> unit
  val stats : t -> stats
end

module Make (H : HashedType) : S with type value = H.t = struct
  module T = Hashtbl.Make (H)

  type value = H.t

  type t = {
    tbl : H.t T.t;
    mutable hits : int;
    mutable misses : int;
    mutable clears : int;
  }

  (* Entries at which a table is reset wholesale. *)
  let max_size = 65_536

  let create n = { tbl = T.create n; hits = 0; misses = 0; clears = 0 }

  let intern t x =
    match T.find_opt t.tbl x with
    | Some y ->
      t.hits <- t.hits + 1;
      y
    | None ->
      if T.length t.tbl >= max_size then begin
        T.reset t.tbl;
        t.clears <- t.clears + 1
      end;
      T.add t.tbl x x;
      t.misses <- t.misses + 1;
      x

  let length t = T.length t.tbl
  let clear t = T.reset t.tbl

  let stats t =
    { hits = t.hits; misses = t.misses; size = T.length t.tbl;
      clears = t.clears }
end

(* ------------------------------------------------------------------ *)
(* Strings (descriptor field names, protocol names): small closed sets
   repeated in every advertisement. *)

module Str_tbl = Make (struct
  type t = string

  let equal = String.equal
  let hash = Hashtbl.hash
end)

let strs_key =
  Domain.DLS.new_key (fun () -> Str_tbl.create 64)

let string s = Str_tbl.intern (Domain.DLS.get strs_key) s
let string_stats () = Str_tbl.stats (Domain.DLS.get strs_key)

(* ------------------------------------------------------------------ *)
(* Prefixes: the destination key of every route.  A canonical prefix
   packs losslessly into one int — [network lsl 6 lor length] — and
   {!Prefix.t} *is* that pack (an immediate, unboxed value), so every
   prefix already is its own canonical representative: interning is the
   identity and costs nothing.  The function is kept so call sites read
   uniformly with the other hot-path intern points. *)

let prefix_pack p = (Ipv4.to_int (Prefix.network p) lsl 6) lor Prefix.length p

let prefix (p : Prefix.t) = p

(* No path-vector or path-element tables remain; their statistics read
   zero for the benchmark (perfbench/bench.ml), which still reports
   them. *)
let zero_stats = { hits = 0; misses = 0; size = 0; clears = 0 }
let path_elem_stats () = zero_stats
let path_vector_stats () = zero_stats

let clear_all () = Str_tbl.clear (Domain.DLS.get strs_key)
