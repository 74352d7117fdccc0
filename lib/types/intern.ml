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

   A table is open-addressed, in {!Int_tbl}'s idiom: a flat array of
   stored hashes beside a flat array of values, linear probing from a
   Fibonacci home slot, growth at 7/8 load.  Interning never removes an
   entry, so a probe ends at the first empty slot.  {!S.find_or_intern}
   probes with a caller's hash and predicate, so a decoder can ask
   whether it already holds a value before building (copying) it.

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
  val find_or_intern : t -> int -> (value -> bool) -> (unit -> value) -> value
  val length : t -> int
  val clear : t -> unit
  val stats : t -> stats
end

(* Entries at which a table is reset wholesale. *)
let max_size = 65_536

module Make (H : HashedType) : S with type value = H.t = struct
  type value = H.t

  (* [hashes.(s)] is the stored hash of [vals.(s)] (made non-negative),
     or -1 for an empty slot.  [vals] is [||] until the first insertion,
     whose value fills the empty slots. *)
  type t = {
    mutable hashes : int array;
    mutable vals : H.t array;
    mutable shift : int; (* [Sys.int_size - log2 capacity] *)
    mutable count : int;
    init_bits : int;
    mutable hits : int;
    mutable misses : int;
    mutable clears : int;
  }

  let min_bits = 3
  let limit cap = cap - (cap lsr 3)

  let create n =
    let rec bits b = if n <= limit (1 lsl b) then b else bits (b + 1) in
    let b = bits min_bits in
    { hashes = Array.make (1 lsl b) (-1); vals = [||]; shift = Sys.int_size - b;
      count = 0; init_bits = b; hits = 0; misses = 0; clears = 0 }

  let slot shift h = (h * 0x1E37_79B9_7F4A_7C15) lsr shift

  (* The slot holding a value stored under [h] that [eq k] accepts, or
     [lnot s] for the empty slot [s] that ends the chain.  Callers pass
     a closed [eq] and its argument [k] rather than a closure over [k],
     so a probe allocates nothing. *)
  let rec seek hashes vals mask h eq k s =
    let h' = Array.unsafe_get hashes s in
    if h' < 0 then lnot s
    else if h' = h && eq k (Array.unsafe_get vals s) then s
    else seek hashes vals mask h eq k ((s + 1) land mask)

  let find t h eq k =
    let hashes = t.hashes in
    seek hashes t.vals (Array.length hashes - 1) h eq k (slot t.shift h)

  let never () _ = false

  (* Doubling re-inserts every entry in slot order. *)
  let grow t =
    let hashes = t.hashes and vals = t.vals in
    let cap = 2 * Array.length hashes in
    let hashes' = Array.make cap (-1) in
    let vals' = Array.make cap (Array.unsafe_get vals 0) in
    let shift = t.shift - 1 and mask = cap - 1 in
    Array.iteri
      (fun i h ->
        if h >= 0 then begin
          let s = lnot (seek hashes' vals' mask h never () (slot shift h)) in
          Array.unsafe_set hashes' s h;
          Array.unsafe_set vals' s (Array.unsafe_get vals i)
        end)
      hashes;
    t.hashes <- hashes';
    t.vals <- vals';
    t.shift <- shift

  let clear t =
    t.hashes <- Array.make (1 lsl t.init_bits) (-1);
    t.vals <- [||];
    t.shift <- Sys.int_size - t.init_bits;
    t.count <- 0

  (* Store [x] under [h] at the empty slot [s] that ended its probe,
     unless the table must first reset or grow, which moves that slot. *)
  let add t h x s =
    let s =
      if t.count < max_size && t.count < limit (Array.length t.hashes) then s
      else begin
        if t.count >= max_size then begin
          clear t;
          t.clears <- t.clears + 1
        end
        else grow t;
        lnot (find t h never ())
      end
    in
    if Array.length t.vals = 0 then t.vals <- Array.make (Array.length t.hashes) x;
    Array.unsafe_set t.hashes s h;
    Array.unsafe_set t.vals s x;
    t.count <- t.count + 1;
    t.misses <- t.misses + 1;
    x

  let found t s =
    t.hits <- t.hits + 1;
    Array.unsafe_get t.vals s

  let intern t x =
    let h = H.hash x land max_int in
    let s = find t h H.equal x in
    if s >= 0 then found t s else add t h x (lnot s)

  let find_or_intern t h matches build =
    let h = h land max_int in
    let s = find t h (fun m y -> m y) matches in
    if s >= 0 then found t s else add t h (build ()) (lnot s)

  let length t = t.count

  let stats t =
    { hits = t.hits; misses = t.misses; size = t.count; clears = t.clears }
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

(* No path-vector or path-element tables remain; their statistics read
   zero for the benchmark (perfbench/bench.ml), which still reports
   them. *)
let zero_stats = { hits = 0; misses = 0; size = 0; clears = 0 }
let path_elem_stats () = zero_stats
let path_vector_stats () = zero_stats

let clear_all () = Str_tbl.clear (Domain.DLS.get strs_key)
