(* A hashtable indexes by the low bits of the hash, and a plain
   multiplicative hash keeps the key's low bits in its low bits: keys
   that differ only in high bits (every /24 of a packed prefix) would
   land in one bucket.  The high half of the product depends on every
   key bit, so it is folded down onto the low half. *)
let hash k =
  let h = k * 0x1E37_79B9_7F4A_7C15 in
  (h lxor (h lsr 32)) land max_int

include Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash = hash
end)
