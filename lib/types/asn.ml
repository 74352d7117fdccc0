type t = int

let max_asn = 0xFFFF_FFFF

let of_int_opt n = if n < 0 || n > max_asn then None else Some n

let of_int n =
  match of_int_opt n with
  | Some a -> a
  | None -> invalid_arg (Printf.sprintf "Asn.of_int: %d out of range" n)

let to_int a = a

let compare = Int.compare
let equal = Int.equal
let hash a = Hashtbl.hash a
let to_string a = string_of_int a
let pp ppf a = Format.fprintf ppf "AS%d" a

let of_string_opt s =
  match String.index_opt s '.' with
  | None -> Option.bind (Decimal.of_string_opt ~max_digits:10 s) of_int_opt
  | Some i ->
    (* asdot notation: <high>.<low>, each 16-bit *)
    let hi = String.sub s 0 i and lo = String.sub s (i + 1) (String.length s - i - 1) in
    let half = Decimal.of_string_opt ~max_digits:5 in
    ( match (half hi, half lo) with
      | Some h, Some l when h <= 0xFFFF && l <= 0xFFFF -> Some ((h lsl 16) lor l)
      | _ -> None )

let of_string s =
  match of_string_opt s with
  | Some a -> a
  | None -> invalid_arg (Printf.sprintf "Asn.of_string: %S" s)

module Set = Set.Make (Int)
module Map = Map.Make (Int)
