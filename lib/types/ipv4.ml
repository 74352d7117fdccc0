type t = int

let max_addr = 0xFFFF_FFFF

let of_int n =
  if n < 0 || n > max_addr then
    invalid_arg (Printf.sprintf "Ipv4.of_int: %d out of range" n)
  else n

let to_int a = a

let of_octets a b c d =
  let ok o = o >= 0 && o <= 255 in
  if not (ok a && ok b && ok c && ok d) then
    invalid_arg "Ipv4.of_octets: octet out of range"
  else (a lsl 24) lor (b lsl 16) lor (c lsl 8) lor d

let to_octets a =
  ((a lsr 24) land 0xFF, (a lsr 16) land 0xFF, (a lsr 8) land 0xFF, a land 0xFF)

let of_string_opt s =
  match String.split_on_char '.' s with
  | [ a; b; c; d ] ->
    let parse o =
      match Decimal.of_string_opt ~max_digits:3 o with
      | Some n when n <= 255 -> Some n
      | _ -> None
    in
    ( match (parse a, parse b, parse c, parse d) with
      | Some a, Some b, Some c, Some d -> Some (of_octets a b c d)
      | _ -> None )
  | _ -> None

let of_string s =
  match of_string_opt s with
  | Some a -> a
  | None -> invalid_arg (Printf.sprintf "Ipv4.of_string: %S" s)

let to_string a =
  let x, y, z, w = to_octets a in
  Printf.sprintf "%d.%d.%d.%d" x y z w

let pp ppf a = Format.pp_print_string ppf (to_string a)
let compare = Int.compare
let equal = Int.equal
let any = 0
