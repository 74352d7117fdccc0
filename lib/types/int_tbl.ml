module type S = sig
  type key
  type 'a t

  val create : int -> 'a t
  val length : 'a t -> int
  val find : 'a t -> key -> 'a
  val find_opt : 'a t -> key -> 'a option
  val mem : 'a t -> key -> bool
  val replace : 'a t -> key -> 'a -> unit
  val remove : 'a t -> key -> unit
  val reset : 'a t -> unit
  val iter : (key -> 'a -> unit) -> 'a t -> unit
  val fold : (key -> 'a -> 'acc -> 'acc) -> 'a t -> 'acc -> 'acc
end

type key = int

(* Open addressing over two flat arrays, so a lookup is one multiply,
   a shift and a short walk over an int array, and an insert writes
   two array cells instead of allocating a bucket cell.  Every key in
   use is non-negative, so [-1] marks an empty slot.  A key's home slot
   is the top bits of a multiplicative (Fibonacci) hash of the whole
   key: the top bits of the product depend on every key bit, so keys
   that differ only in high bits (every /24 of a packed prefix) or form
   an arithmetic progression (sequential ASNs, /24s) spread evenly.
   Collisions probe linearly.  The table grows at 7/8 load, so a probe
   always ends at an empty slot; a removal shifts the rest of its probe
   chain back instead of leaving a tombstone.

   The payload array is allocated by the first binding, whose payload
   fills the empty slots (a polymorphic table has no other value to
   fill them with).  It is one cell longer than [keys]: the extra cell
   keeps that fill, which a removal writes over the payload it drops,
   so a removed payload is not kept reachable. *)
type 'a t = {
  mutable keys : int array;
  mutable vals : 'a array; (* [||] until the first binding *)
  mutable shift : int; (* [Sys.int_size - log2 capacity] *)
  mutable count : int;
  init_shift : int; (* [shift] as created; {!reset} returns to it *)
}

let min_bits = 3

(* Bindings a table of [cap] slots holds before it grows: 7/8 of it. *)
let limit cap = cap - (cap lsr 3)

let create n =
  let rec bits b = if n <= limit (1 lsl b) then b else bits (b + 1) in
  let b = bits min_bits in
  { keys = Array.make (1 lsl b) (-1);
    vals = [||];
    shift = Sys.int_size - b;
    count = 0;
    init_shift = Sys.int_size - b }

let slot shift k = (k * 0x1E37_79B9_7F4A_7C15) lsr shift

(* The slot holding [k], or -1. *)
let rec seek keys mask k s =
  let k' = Array.unsafe_get keys s in
  if k' = k then s else if k' < 0 then -1 else seek keys mask k ((s + 1) land mask)

let index t k =
  if k < 0 then -1
  else
    let keys = t.keys in
    seek keys (Array.length keys - 1) k (slot t.shift k)

(* The slot holding [k], or the empty slot where it belongs. *)
let rec probe keys mask k s =
  let k' = Array.unsafe_get keys s in
  if k' = k || k' < 0 then s else probe keys mask k ((s + 1) land mask)

let length t = t.count

let find_opt t k =
  let s = index t k in
  if s < 0 then None else Some (Array.unsafe_get t.vals s)

let find t k =
  let s = index t k in
  if s < 0 then raise Not_found else Array.unsafe_get t.vals s

let mem t k = index t k >= 0

(* Doubling re-inserts every key in slot order: a key's new home is
   twice its old one or the slot after, so the writes walk the new
   arrays front to back. *)
let grow t =
  let keys = t.keys and vals = t.vals in
  let cap = 2 * Array.length keys in
  let keys' = Array.make cap (-1) in
  let vals' = Array.make (cap + 1) (Array.unsafe_get vals (Array.length keys)) in
  let shift = t.shift - 1 and mask = cap - 1 in
  Array.iteri
    (fun i k ->
      if k >= 0 then begin
        let s = probe keys' mask k (slot shift k) in
        Array.unsafe_set keys' s k;
        Array.unsafe_set vals' s (Array.unsafe_get vals i)
      end)
    keys;
  t.keys <- keys';
  t.vals <- vals';
  t.shift <- shift

let rec replace t k v =
  if k < 0 then invalid_arg "Int_tbl.replace: negative key";
  let keys = t.keys in
  let cap = Array.length keys in
  let s = probe keys (cap - 1) k (slot t.shift k) in
  if Array.unsafe_get keys s = k then Array.unsafe_set t.vals s v
  else if t.count >= limit cap then begin
    grow t;
    replace t k v
  end
  else begin
    if Array.length t.vals = 0 then t.vals <- Array.make (cap + 1) v;
    Array.unsafe_set keys s k;
    Array.unsafe_set t.vals s v;
    t.count <- t.count + 1
  end

(* Backward shift: walk the chain after the hole and move back each
   key whose home is not between the hole and its slot, so every key
   stays reachable from its home without a tombstone. *)
let remove t k =
  let s = index t k in
  if s >= 0 then begin
    let keys = t.keys and vals = t.vals in
    let mask = Array.length keys - 1 in
    let rec close hole j =
      let j = (j + 1) land mask in
      let kj = Array.unsafe_get keys j in
      if kj < 0 then hole
      else if (j - slot t.shift kj) land mask >= (j - hole) land mask then begin
        Array.unsafe_set keys hole kj;
        Array.unsafe_set vals hole (Array.unsafe_get vals j);
        close j j
      end
      else close hole j
    in
    let hole = close s s in
    Array.unsafe_set keys hole (-1);
    Array.unsafe_set vals hole (Array.unsafe_get vals (mask + 1));
    t.count <- t.count - 1
  end

let reset t =
  if t.shift = t.init_shift then begin
    if t.count > 0 then begin
      let cap = Array.length t.keys in
      Array.fill t.keys 0 cap (-1);
      Array.fill t.vals 0 cap (Array.unsafe_get t.vals cap)
    end
  end
  else begin
    t.keys <- Array.make (1 lsl (Sys.int_size - t.init_shift)) (-1);
    t.vals <- [||];
    t.shift <- t.init_shift
  end;
  t.count <- 0

(* Slot order.  [f] may replace bindings of [t]; a key it adds may or
   may not be visited, and it must not remove any. *)
let iter f t =
  let keys = t.keys and vals = t.vals in
  for i = 0 to Array.length keys - 1 do
    let k = Array.unsafe_get keys i in
    if k >= 0 then f k (Array.unsafe_get vals i)
  done

let fold f t acc =
  let keys = t.keys and vals = t.vals in
  let acc = ref acc in
  for i = 0 to Array.length keys - 1 do
    let k = Array.unsafe_get keys i in
    if k >= 0 then acc := f k (Array.unsafe_get vals i) !acc
  done;
  !acc

module For_tests = struct
  let capacity t = Array.length t.keys
  let home t k = slot t.shift k

  let mean_probe t =
    if t.count = 0 then 0.
    else
      let mask = Array.length t.keys - 1 and probes = ref 0 in
      Array.iteri
        (fun s k -> if k >= 0 then probes := !probes + 1 + ((s - slot t.shift k) land mask))
        t.keys;
      float_of_int !probes /. float_of_int t.count
end
