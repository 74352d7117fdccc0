(* Packed immediate representation.  A prefix is canonical on
   construction (host bits below the mask are zeroed), so it fits
   losslessly in one tagged int as [network lsl 6 lor length] — 38
   bits.  Every prefix value is therefore unboxed: map keys, index keys
   and IA destination fields carry no per-prefix allocation,
   which is what lets a million-route RIB hold its destination keys for
   free.  The packing is order-preserving — integer comparison is
   exactly the old (network, length) lexicographic order — so every
   [Map]/[Set] iteration order is byte-for-byte what the boxed
   representation produced. *)
type t = int

let mask len = if len = 0 then 0 else 0xFFFF_FFFF lsl (32 - len) land 0xFFFF_FFFF

let make addr len =
  if len < 0 || len > 32 then
    invalid_arg (Printf.sprintf "Prefix.make: bad length %d" len)
  else ((Ipv4.to_int addr land mask len) lsl 6) lor len

let network p = Ipv4.of_int (p lsr 6)
let length p = p land 0x3F

let of_string_opt s =
  match String.index_opt s '/' with
  | None -> Option.map (fun a -> make a 32) (Ipv4.of_string_opt s)
  | Some i ->
    let addr = String.sub s 0 i
    and len = String.sub s (i + 1) (String.length s - i - 1) in
    ( match (Ipv4.of_string_opt addr, Decimal.of_string_opt ~max_digits:2 len) with
      | Some a, Some l when l <= 32 -> Some (make a l)
      | _ -> None )

let of_string s =
  match of_string_opt s with
  | Some p -> p
  | None -> invalid_arg (Printf.sprintf "Prefix.of_string: %S" s)

let to_string p =
  Printf.sprintf "%s/%d" (Ipv4.to_string (network p)) (p land 0x3F)

let to_int p = p

let pp ppf p = Format.pp_print_string ppf (to_string p)

let mem addr p = Ipv4.to_int addr land mask (p land 0x3F) = p lsr 6

let subsumes p q =
  p land 0x3F <= q land 0x3F && (q lsr 6) land mask (p land 0x3F) = p lsr 6

let bit p i =
  if i < 0 || i >= p land 0x3F then invalid_arg "Prefix.bit: index out of range"
  else (p lsr 6) land (1 lsl (31 - i)) <> 0

let compare : t -> t -> int = Int.compare
let equal : t -> t -> bool = Int.equal
let hash (p : t) = Hashtbl.hash p
let default = 0

(* A least-significant-digit radix sort of the packed keys: four
   counting passes of 10 bits cover the 38-bit key, ping-ponging
   between [a] and a scratch array so the fourth pass ends back in [a].
   Linear where a comparison sort is not, but each pass also clears and
   sums 1,024 counters, so a small array is sorted by comparison. *)
let digit = 10

let sort a =
  let n = Array.length a in
  if n < 1 lsl digit then Array.sort compare a
  else begin
    let mask = (1 lsl digit) - 1 in
    let count = Array.make (mask + 1) 0 in
    let pass sh src dst =
      Array.fill count 0 (mask + 1) 0;
      Array.iter
        (fun p ->
          let d = (p lsr sh) land mask in
          count.(d) <- count.(d) + 1)
        src;
      let sum = ref 0 in
      for d = 0 to mask do
        let c = count.(d) in
        count.(d) <- !sum;
        sum := !sum + c
      done;
      Array.iter
        (fun p ->
          let d = (p lsr sh) land mask in
          dst.(count.(d)) <- p;
          count.(d) <- count.(d) + 1)
        src
    in
    let scratch = Array.make n default in
    pass 0 a scratch;
    pass digit scratch a;
    pass (2 * digit) a scratch;
    pass (3 * digit) scratch a
  end

let split p =
  let len = p land 0x3F in
  if len >= 32 then None
  else
    (* Same network, length+1: the pack just increments.  The high half
       additionally sets bit [len] of the network. *)
    Some (p + 1, p + 1 + (1 lsl (31 - len + 6)))

module Ord = struct
  type nonrec t = t

  let compare = compare
end

module Set = Set.Make (Ord)
module Map = Map.Make (Ord)

module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = Int_tbl.hash
end)
