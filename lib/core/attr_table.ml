(* Refcounted shared attribute-set table: the memory half of the
   compact route store.

   A route is a prefix plus an attribute set (path vector, membership,
   descriptors), and attribute sets repeat massively — a full table
   learned from one peer carries a few thousand distinct sets across
   hundreds of thousands of prefixes, and a feed's million originations
   share one.  [share] maps an IA to the canonical physical
   representative of its attribute set, so every RIB that stores shared
   IAs degenerates to (prefix, canonical-attrs): with the prefix also
   interned ({!Dbgp_types.Intern.prefix}), a RIB entry is morally the
   int pair (prefix pack, attribute-set id).

   Refcounting governs table membership only, never memory safety: the
   attribute lists are ordinary GC-managed values, so an unbalanced
   release costs future sharing (or keeps a dead entry resident), not
   correctness.  Acquire/release discipline lives in {!Speaker}: a
   store into the Adj-RIB-In, the local-origination map or a Loc-RIB
   [chosen] acquires; eviction from those stores releases.  An entry
   whose refcount reaches zero leaves the table (counted under
   [attr_table.evictions]) and its dense id returns to the free list,
   keeping ids dense in [0, live-sets).

   Domain-local, like every intern table: sharing is an accelerator,
   so per-domain instances change hit rates, never results. *)

module Metrics = Dbgp_obs.Metrics

type entry = { canon : Ia.t; mutable rc : int; id : int }

module Key = struct
  type t = Ia.t

  let equal = Ia.same_attrs
  let hash = Ia.attrs_hash
end

module Tbl = Hashtbl.Make (Key)

let max_size = 262_144

type state = {
  obs : Metrics.t;
  c_hits : Metrics.counter;
  c_misses : Metrics.counter;
  c_evictions : Metrics.counter;
  c_overflow : Metrics.counter;
  g_occupancy : Metrics.gauge;
  tbl : entry Tbl.t;
  mutable next_id : int;
  mutable free_ids : int list;
}

let state_key =
  Domain.DLS.new_key (fun () ->
      let obs = Metrics.create () in
      {
        obs;
        c_hits = Metrics.counter obs "attr_table.hits";
        c_misses = Metrics.counter obs "attr_table.misses";
        c_evictions = Metrics.counter obs "attr_table.evictions";
        c_overflow = Metrics.counter obs "attr_table.overflow";
        g_occupancy = Metrics.gauge obs "attr_table.occupancy";
        tbl = Tbl.create 1024;
        next_id = 0;
        free_ids = [];
      })

let state () = Domain.DLS.get state_key
let metrics () = (state ()).obs
let occupancy () = Tbl.length (state ()).tbl

let reset () =
  let s = state () in
  Metrics.reset s.obs;
  Tbl.reset s.tbl;
  s.next_id <- 0;
  s.free_ids <- []

(* Re-point [ia] at the canonical attribute fields; returns [ia] itself
   when they are already physically canonical (the common case after
   the first share of a fan-out). *)
let rebind (canon : Ia.t) (ia : Ia.t) =
  if
    canon.Ia.path_vector == ia.Ia.path_vector
    && canon.Ia.membership == ia.Ia.membership
    && canon.Ia.path_descriptors == ia.Ia.path_descriptors
    && canon.Ia.island_descriptors == ia.Ia.island_descriptors
  then ia
  else
    { ia with
      Ia.path_vector = canon.Ia.path_vector;
      membership = canon.Ia.membership;
      path_descriptors = canon.Ia.path_descriptors;
      island_descriptors = canon.Ia.island_descriptors }

let share ia =
  let s = state () in
  match Tbl.find_opt s.tbl ia with
  | Some e ->
    Metrics.incr s.c_hits;
    e.rc <- e.rc + 1;
    rebind e.canon ia
  | None ->
    if Tbl.length s.tbl >= max_size then begin
      (* Full table: hand the IA back unshared.  Sharing degrades, the
         route is unaffected. *)
      Metrics.incr s.c_overflow;
      ia
    end
    else begin
      Metrics.incr s.c_misses;
      let id =
        match s.free_ids with
        | i :: rest ->
          s.free_ids <- rest;
          i
        | [] ->
          let i = s.next_id in
          s.next_id <- i + 1;
          i
      in
      Tbl.replace s.tbl ia { canon = ia; rc = 1; id };
      Metrics.set s.g_occupancy (float_of_int (Tbl.length s.tbl));
      ia
    end

let release ia =
  let s = state () in
  match Tbl.find_opt s.tbl ia with
  | None -> () (* overflow-era or cross-domain attrs: nothing resident *)
  | Some e ->
    e.rc <- e.rc - 1;
    if e.rc <= 0 then begin
      Tbl.remove s.tbl e.canon;
      s.free_ids <- e.id :: s.free_ids;
      Metrics.incr s.c_evictions;
      Metrics.set s.g_occupancy (float_of_int (Tbl.length s.tbl))
    end

let id_of ia =
  Option.map (fun e -> e.id) (Tbl.find_opt (state ()).tbl ia)

let refcount ia =
  Option.map (fun e -> e.rc) (Tbl.find_opt (state ()).tbl ia)
