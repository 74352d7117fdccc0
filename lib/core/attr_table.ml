(* Refcounted shared attribute-set table: the one identity layer of the
   compact route store.

   A route is a prefix plus an attribute set (path vector, membership,
   descriptors), and attribute sets repeat massively — a full table
   learned from one peer carries a few thousand distinct sets across
   hundreds of thousands of prefixes, and a feed's million originations
   share one.  A set is identified once, where it enters a speaker
   ([share]: one hash, one probe), and from then on the route stores
   the table's [entry] for it: the canonical set plus one word holding
   its hash and its refcount.  The prefix is the RIB key, so a stored
   route is morally the pair (prefix, entry) and its [Ia.t] is rebuilt on
   demand with [Ia.with_prefix].

   The table is open-addressed (linear probing, at most half full) over
   the entries themselves, and an entry is resident exactly when its
   own pointer sits in the probe run that starts at its home slot.
   Resident entries are unique per set: two resident entries are never
   [Ia.same_attrs].  So between resident entries set equality is pointer
   equality ([same]), and a release is a decrement after a probe that
   compares pointers from the entry's stored home slot — no rehash, no
   structural compare.  The last release deletes the slot in place
   (backward shift, no tombstones).

   Refcounts govern residency, never memory safety: attribute lists are
   GC-managed, and an entry that is not resident is still a valid value
   for whoever holds it.  An entry is not resident when it was resident
   at a {!reset}, when it belongs to another domain's table (sets made
   during set-up in the main domain can reach a shard's speaker), or
   when its refcount reached zero — evicted, the
   one case where a stored reference means refcount drift ({!audit}).
   Acquires and releases of a non-resident entry do nothing, and [same]
   compares it structurally, so a route holding one keeps its meaning.

   The table has no cap: it doubles at half load and an entry leaves it
   when its refcount reaches zero, so residency is bounded by the
   references that stored routes hold.

   Domain-local: each OCaml 5 domain has its own table. *)

module Metrics = Dbgp_obs.Metrics

(* [meta] packs the set's 30-bit hash above a 32-bit refcount.  A
   refcount of zero marks an entry evicted; every other entry's is at
   least one. *)
type entry = { canon : Ia.t; mutable meta : int }

let count_bits = 32
let count_mask = (1 lsl count_bits) - 1
let hash_of e = e.meta lsr count_bits
let refs e = e.meta land count_mask

let nil =
  { canon =
      Ia.originate ~prefix:Dbgp_types.Prefix.default
        ~origin_asn:(Dbgp_types.Asn.of_int 0)
        ~next_hop:(Dbgp_types.Ipv4.of_int 0) ();
    meta = 0 }

type state = {
  obs : Metrics.t;
  c_hits : Metrics.counter;
  c_misses : Metrics.counter;
  c_evictions : Metrics.counter;
  g_occupancy : Metrics.gauge;
  mutable slots : entry array; (* power of two, [nil] = empty *)
  mutable count : int;
}

let initial_slots = 2048

let state_key =
  Domain.DLS.new_key (fun () ->
      let obs = Metrics.create () in
      {
        obs;
        c_hits = Metrics.counter obs "attr_table.hits";
        c_misses = Metrics.counter obs "attr_table.misses";
        c_evictions = Metrics.counter obs "attr_table.evictions";
        g_occupancy = Metrics.gauge obs "attr_table.occupancy";
        slots = Array.make initial_slots nil;
        count = 0;
      })

(* Descriptor lists repeat across distinct sets — every route a speaker
   re-advertises carries its next hop and origin, every route from one
   peer the peer's — while the path vectors differ.  A set new to the
   table takes the descriptor list already held by another set when
   one is equal, so a table of distinct paths stores its descriptors
   once.  Bounded and reset wholesale like the value intern tables: a
   reset only costs future sharing. *)
let rec descriptors_equal (a : Ia.path_descriptor list) b =
  a == b
  ||
  match (a, b) with
  | x :: xs, y :: ys ->
    (x == y
    || String.equal x.Ia.field y.Ia.field
       && x.Ia.owners = y.Ia.owners
       && (x.Ia.value == y.Ia.value || Value.equal x.Ia.value y.Ia.value))
    && descriptors_equal xs ys
  | _ -> false

module Descriptors = Dbgp_types.Intern.Make (struct
  type t = Ia.path_descriptor list

  let equal = descriptors_equal

  let hash ds =
    Value.finish
      (List.fold_left (fun h (d : Ia.path_descriptor) -> Value.hash_fold h d.value) 0 ds)
end)

let descriptors_key = Domain.DLS.new_key (fun () -> Descriptors.create 1024)
let descriptor_stats () = Descriptors.stats (Domain.DLS.get descriptors_key)

let with_shared_descriptors (ia : Ia.t) =
  match ia.Ia.path_descriptors with
  | [] -> ia
  | ds ->
    let ds' = Descriptors.intern (Domain.DLS.get descriptors_key) ds in
    if ds' == ds then ia else { ia with Ia.path_descriptors = ds' }

let state () = Domain.DLS.get state_key
let metrics () = (state ()).obs
let occupancy () = (state ()).count

(* The entries resident now stay valid for their holders but are not
   resident any more: the fresh table does not hold their pointers. *)
let reset () =
  let s = state () in
  Metrics.reset s.obs;
  Descriptors.clear (Domain.DLS.get descriptors_key);
  s.slots <- Array.make initial_slots nil;
  s.count <- 0

let route e prefix = Ia.with_prefix prefix e.canon

(* The slot holding [e] in [s], or -1. *)
let slot_of s e =
  if refs e = 0 then -1
  else
    let slots = s.slots in
    let mask = Array.length slots - 1 in
    let rec go i =
      let x = Array.unsafe_get slots i in
      if x == e then i else if x == nil then -1 else go ((i + 1) land mask)
    in
    go (hash_of e land mask)

(* Equal sets hash equal, so differing hashes settle it at once. *)
let same a b =
  a == b
  || hash_of a = hash_of b
     && (let s = state () in
         slot_of s a < 0 || slot_of s b < 0)
     && Ia.same_attrs a.canon b.canon

let resize s =
  let old = s.slots in
  let slots = Array.make (2 * Array.length old) nil in
  let mask = Array.length slots - 1 in
  Array.iter
    (fun e ->
      if e != nil then begin
        let rec go i = if slots.(i) == nil then slots.(i) <- e else go ((i + 1) land mask) in
        go (hash_of e land mask)
      end)
    old;
  s.slots <- slots

let share ia =
  let s = state () in
  let h = Ia.attrs_hash ia in
  let slots = s.slots in
  let mask = Array.length slots - 1 in
  let rec find i =
    let e = Array.unsafe_get slots i in
    if e == nil then i
    else if hash_of e = h && Ia.same_attrs e.canon ia then begin
      Metrics.incr s.c_hits;
      e.meta <- e.meta + 1;
      -1 - i
    end
    else find ((i + 1) land mask)
  in
  let i = find (h land mask) in
  if i < 0 then slots.(-1 - i)
  else begin
    Metrics.incr s.c_misses;
    let e = { canon = with_shared_descriptors ia; meta = (h lsl count_bits) lor 1 } in
    slots.(i) <- e;
    s.count <- s.count + 1;
    if 2 * s.count > Array.length slots then resize s;
    Metrics.set s.g_occupancy (float_of_int s.count);
    e
  end

(* The set's own fields, physically: the candidate built from a stored
   route, when no import filter rewrote it. *)
let share_like hint ia =
  if Ia.shares_fields hint.canon ia then begin
    if slot_of (state ()) hint >= 0 then hint.meta <- hint.meta + 1;
    hint
  end
  else share ia

let acquire e =
  slot_of (state ()) e >= 0
  && begin
    e.meta <- e.meta + 1;
    true
  end

(* Backward-shift deletion: walk the run after the hole and move back
   every entry whose home slot does not lie cyclically in (hole, j]. *)
let delete s i =
  let slots = s.slots in
  let mask = Array.length slots - 1 in
  let rec go hole j =
    let j = (j + 1) land mask in
    let e = slots.(j) in
    if e == nil then slots.(hole) <- nil
    else
      let k = hash_of e land mask in
      let stays = if hole <= j then hole < k && k <= j else hole < k || k <= j in
      if stays then go hole j
      else begin
        slots.(hole) <- e;
        go j j
      end
  in
  go i i

let release e =
  let s = state () in
  let i = slot_of s e in
  if i >= 0 then begin
    e.meta <- e.meta - 1;
    if refs e = 0 then begin
      delete s i;
      s.count <- s.count - 1;
      Metrics.incr s.c_evictions;
      Metrics.set s.g_occupancy (float_of_int s.count)
    end
  end

let refcount ia =
  let s = state () in
  let h = Ia.attrs_hash ia in
  let mask = Array.length s.slots - 1 in
  let rec find i =
    let e = s.slots.(i) in
    if e == nil then None
    else if hash_of e = h && Ia.same_attrs e.canon ia then Some (refs e)
    else find ((i + 1) land mask)
  in
  find (h land mask)

type drift = { slot : int; refcount : int; references : int }

(* Count the references [iter] enumerates per resident slot, then compare
   with each resident entry's refcount.  References to evicted entries
   are drift too (reported under slot -1); entries that were never
   resident here are nobody's count. *)
let audit iter =
  let s = state () in
  let counts = Array.make (Array.length s.slots) 0 and stray = ref 0 in
  iter (fun e ->
      let i = slot_of s e in
      if i >= 0 then counts.(i) <- counts.(i) + 1
      else if refs e = 0 then incr stray);
  let drift = ref [] in
  for i = Array.length s.slots - 1 downto 0 do
    let e = s.slots.(i) in
    if e != nil && refs e <> counts.(i) then
      drift := { slot = i; refcount = refs e; references = counts.(i) } :: !drift
  done;
  if !stray > 0 then { slot = -1; refcount = 0; references = !stray } :: !drift
  else !drift
