open Dbgp_types

(* Keys are the prefix packed as [network lsl 6 lor length], so every
   valid key is non-negative and [-1] marks an empty slot.  A slot is
   the top bits of a multiplicative (Fibonacci) hash of the whole key:
   low-bit slicing would send every /24 — whose low eight network bits
   are zero — to a handful of slots.  Collisions probe linearly, and
   the table is at most half full, so a probe always ends at an empty
   slot.  Nothing is ever deleted: the owner drops the whole index and
   builds a new one, so no tombstones are needed.  The payload array
   is allocated by the first binding, whose payload fills the empty
   slots: a polymorphic table has no other value to fill them with. *)
type 'a t = {
  mutable keys : int array;
  mutable hops : 'a array; (* [||] until the first binding *)
  mutable shift : int; (* [Sys.int_size - log2 capacity] *)
  mutable count : int;
  mutable lengths : int array; (* present prefix lengths, descending *)
}

(* Sizing up front matters at table scale: each doubling leaves the
   old arrays as major-heap garbage. *)
let create n =
  let rec bits b = if 1 lsl b >= 2 * n then b else bits (b + 1) in
  let b = bits 4 in
  { keys = Array.make (1 lsl b) (-1);
    hops = [||];
    shift = Sys.int_size - b;
    count = 0;
    lengths = [||] }

let masks =
  Array.init 33 (fun l ->
      if l = 0 then 0 else 0xFFFF_FFFF lsl (32 - l) land 0xFFFF_FFFF)

let slot shift key = (key * 0x1E37_79B9_7F4A_7C15) lsr shift

(* The slot holding [key], or the empty slot where it belongs. *)
let rec probe keys mask key s =
  let k = Array.unsafe_get keys s in
  if k = key || k < 0 then s else probe keys mask key ((s + 1) land mask)

let insert t key v =
  let s = probe t.keys (Array.length t.keys - 1) key (slot t.shift key) in
  if t.keys.(s) < 0 then begin
    t.keys.(s) <- key;
    t.count <- t.count + 1
  end;
  t.hops.(s) <- v

let grow t v =
  let keys = t.keys and hops = t.hops in
  let cap = 2 * Array.length keys in
  t.keys <- Array.make cap (-1);
  t.hops <- Array.make cap v;
  t.shift <- t.shift - 1;
  t.count <- 0;
  Array.iteri (fun i key -> if key >= 0 then insert t key hops.(i)) keys

let add t p v =
  if t.count = 0 then t.hops <- Array.make (Array.length t.keys) v;
  if 2 * (t.count + 1) > Array.length t.keys then grow t v;
  insert t (Prefix.to_int p) v;
  let len = Prefix.length p in
  if not (Array.mem len t.lengths) then begin
    let ls = Array.append t.lengths [| len |] in
    Array.sort (fun a b -> Int.compare b a) ls;
    t.lengths <- ls
  end

(* Top-level recursion over the length list keeps a lookup free of
   closure allocation; only the [Some] of a hit is allocated. *)
let rec find_from t a i =
  if i >= Array.length t.lengths then None
  else
    let len = Array.unsafe_get t.lengths i in
    let key = ((a land Array.unsafe_get masks len) lsl 6) lor len in
    let keys = t.keys in
    let s = probe keys (Array.length keys - 1) key (slot t.shift key) in
    if Array.unsafe_get keys s = key then Some (Array.unsafe_get t.hops s)
    else find_from t a (i + 1)

let find t addr = find_from t (Ipv4.to_int addr) 0
let cardinal t = t.count
let capacity t = Array.length t.keys
let home t p = slot t.shift (Prefix.to_int p)
