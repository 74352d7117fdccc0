(* Hash-consed interning for hot-path values.

   The update hot path compares path vectors and path elements
   constantly (duplicate-announce detection, decision change checks,
   egress fan-out).  Interning maps structurally equal values to
   one physical representative so those comparisons can short-circuit
   on pointer equality, and so fanned-out announces share one copy of
   each vector instead of N.

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

  val create : ?max_size:int -> int -> t
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
    max_size : int;
    mutable hits : int;
    mutable misses : int;
    mutable clears : int;
  }

  let create ?(max_size = 65_536) n =
    { tbl = T.create n; max_size; hits = 0; misses = 0; clears = 0 }

  let intern t x =
    match T.find_opt t.tbl x with
    | Some y ->
      t.hits <- t.hits + 1;
      y
    | None ->
      if T.length t.tbl >= t.max_size then begin
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
(* Path elements.                                                      *)

module Elem_tbl = Make (struct
  type t = Path_elem.t

  (* Physical check first: re-interning an already-canonical element is
     the common case once decode and prepend both intern. *)
  let equal a b = a == b || Path_elem.equal a b
  let hash = Hashtbl.hash
end)

(* The shared tables below are domain-local (one instance per OCaml 5
   domain, created lazily on first use).  Interning is semantically
   transparent — it only decides which physical representative a
   structurally-equal value maps to — so two domains interning the same
   value independently is sound: each gets a canonical pointer for
   comparisons *within its own domain*, and cross-domain [==] simply
   degrades to the structural fallback every comparison site already
   has.  Domain-locality is what lets the sharded simulator run one
   region per domain with no locks on the update hot path. *)

let elems_key =
  Domain.DLS.new_key (fun () -> Elem_tbl.create 256)

let path_elem e = Elem_tbl.intern (Domain.DLS.get elems_key) e
let path_elem_stats () = Elem_tbl.stats (Domain.DLS.get elems_key)

(* ------------------------------------------------------------------ *)
(* Path vectors, hash-consed cons cell by cons cell so that vectors
   sharing a tail share it physically too (a prepend of an interned
   vector interns one fresh cell and reuses the rest). *)

module Vec_tbl = Make (struct
  type t = Path_elem.t list

  (* Only canonical-component cells are ever offered to this table
     ([path_vector] interns head and tail first), so equality of a cons
     cell is equality of its component pointers. *)
  let equal a b =
    a == b
    ||
    match (a, b) with
    | x :: xs, y :: ys -> x == y && xs == ys
    | _ -> false

  let hash = Hashtbl.hash
end)

let vecs_key =
  Domain.DLS.new_key (fun () -> Vec_tbl.create 1024)

let rec path_vector = function
  | [] -> []
  | e :: rest ->
    let e = path_elem e in
    let rest = path_vector rest in
    Vec_tbl.intern (Domain.DLS.get vecs_key) (e :: rest)

let path_vector_stats () = Vec_tbl.stats (Domain.DLS.get vecs_key)

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

(* ------------------------------------------------------------------ *)
(* Loop-check memo: [Path_elem.has_loop] walks the vector building
   scratch sets on every ingress filter run.  Interned vectors repeat
   physically, so a small direct-mapped identity cache answers most
   checks in O(1).  Sound for any list (the slot key is compared by
   pointer), merely ineffective for un-interned ones.  Domain-local for
   the same reason as the intern tables: the memo is a pure
   accelerator, so private per-domain copies cost only warm-up. *)

let loop_slots = 512

let loop_memo_key : (Path_elem.t list * bool) array Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Array.make loop_slots ([], false))

let has_loop = function
  | [] -> false
  | pv ->
    let loop_memo = Domain.DLS.get loop_memo_key in
    let slot = Hashtbl.hash pv land (loop_slots - 1) in
    let (key, cached) = Array.unsafe_get loop_memo slot in
    if key == pv then cached
    else begin
      let r = Path_elem.has_loop pv in
      Array.unsafe_set loop_memo slot (pv, r);
      r
    end

let clear_all () =
  Elem_tbl.clear (Domain.DLS.get elems_key);
  Vec_tbl.clear (Domain.DLS.get vecs_key);
  Str_tbl.clear (Domain.DLS.get strs_key);
  Array.fill (Domain.DLS.get loop_memo_key) 0 loop_slots ([], false)
