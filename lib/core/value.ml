open Dbgp_types
module W = Dbgp_wire.Writer
module R = Dbgp_wire.Reader

type t =
  | Int of int
  | Str of string
  | Bytes of string
  | Addr of Ipv4.t
  | Pfx of Prefix.t
  | Asn of Asn.t
  | List of t list
  | Pair of t * t

let int n = Int n
let bytes s = Bytes s
let addr a = Addr a
let pair a b = Pair (a, b)
let list l = List l

let as_int = function Int n -> Some n | _ -> None
let as_str = function Str s -> Some s | _ -> None
let as_addr = function Addr a -> Some a | _ -> None
let as_asn = function Asn a -> Some a | _ -> None

let rec compare a b =
  let tag = function
    | Int _ -> 0 | Str _ -> 1 | Bytes _ -> 2 | Addr _ -> 3
    | Pfx _ -> 4 | Asn _ -> 5 | List _ -> 6 | Pair _ -> 7
  in
  match (a, b) with
  | Int x, Int y -> Int.compare x y
  | Str x, Str y | Bytes x, Bytes y -> String.compare x y
  | Addr x, Addr y -> Ipv4.compare x y
  | Pfx x, Pfx y -> Prefix.compare x y
  | Asn x, Asn y -> Asn.compare x y
  | List x, List y -> List.compare compare x y
  | Pair (x1, x2), Pair (y1, y2) ->
    ( match compare x1 y1 with 0 -> compare x2 y2 | c -> c )
  | _ -> Int.compare (tag a) (tag b)

let equal a b = compare a b = 0

let rec pp ppf = function
  | Int n -> Format.pp_print_int ppf n
  | Str s -> Format.fprintf ppf "%S" s
  | Bytes s -> Format.fprintf ppf "<%d bytes>" (String.length s)
  | Addr a -> Ipv4.pp ppf a
  | Pfx p -> Prefix.pp ppf p
  | Asn a -> Asn.pp ppf a
  | List l ->
    Format.fprintf ppf "[%a]"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "; ")
         pp)
      l
  | Pair (a, b) -> Format.fprintf ppf "(%a, %a)" pp a pp b

let rec encode w = function
  | Int n ->
    W.u8 w 0;
    W.varint w n
  | Str s ->
    W.u8 w 1;
    W.delimited w s
  | Bytes s ->
    W.u8 w 2;
    W.delimited w s
  | Addr a ->
    W.u8 w 3;
    W.ipv4 w a
  | Pfx p ->
    W.u8 w 4;
    W.prefix w p
  | Asn a ->
    W.u8 w 5;
    W.asn w a
  | List l ->
    W.u8 w 6;
    W.list w encode l
  | Pair (a, b) ->
    W.u8 w 7;
    encode w a;
    encode w b

let rec decode r =
  match R.u8 r with
  | 0 -> Int (R.varint r)
  | 1 -> Str (R.delimited r)
  | 2 -> Bytes (R.delimited r)
  | 3 -> Addr (R.ipv4 r)
  | 4 -> Pfx (R.prefix r)
  | 5 -> Asn (R.asn r)
  | 6 -> List (R.list ~min_width:2 r decode) (* every value is >= tag + 1 byte *)
  | 7 ->
    let a = decode r in
    let b = decode r in
    Pair (a, b)
  | n -> raise (R.Error (Printf.sprintf "Value.decode: bad tag %d" n))

let rec wire_size = function
  | Int n -> 1 + W.varint_size n
  | Str s | Bytes s -> 1 + W.delimited_size s
  | Addr _ | Asn _ -> 5
  | Pfx p -> 1 + W.prefix_size p
  | List l -> 1 + W.list_size wire_size l
  | Pair (a, b) -> 1 + wire_size a + wire_size b

(* ------------------------------------------------------------------ *)
(* Payload-blind hashing.

   Descriptor values can be tens of kilobytes ([Bytes] payloads), and a
   generic [Hashtbl.hash] reads every byte of a string it reaches.  Every
   table keyed by an attribute set hashes through here instead, so a
   hash costs O(1) whatever the payload: immediates mix arithmetically,
   a string longer than [short_string] contributes its length and
   [string_samples] bytes at a fixed stride, and lists and pairs are
   walked to a bounded depth and breadth.  Structurally equal values
   hash equal; values differing only in unsampled bytes collide, which
   costs the table one structural compare, never a wrong answer. *)

let short_string = 32
let string_samples = 16
let max_depth = 3
let max_breadth = 8

(* FNV-1a over whole ints: cheap, allocation-free, order-sensitive.
   Multiplication only moves entropy upwards, so a finished hash is
   passed through [Hashtbl.hash] (one int: no traversal) to spread it
   back into the low bits that bucket and slot indices use. *)
let[@inline] mix h x = (h lxor x) * 0x100000001b3
let hash_seed = 0x2bf29ce484222325
let finish h = Hashtbl.hash h

let string_hash s =
  let n = String.length s in
  if n <= short_string then Hashtbl.hash s
  else begin
    let step = n / string_samples in
    let h = ref (mix hash_seed n) in
    for i = 0 to string_samples - 1 do
      h := mix !h (Char.code (String.unsafe_get s (i * step)))
    done;
    mix !h (Char.code (String.unsafe_get s (n - 1)))
  end

let rec fold h depth = function
  | Int n -> mix (mix h 0) n
  | Str s -> mix (mix h 1) (string_hash s)
  | Bytes s -> mix (mix h 2) (string_hash s)
  | Addr a -> mix (mix h 3) (Ipv4.to_int a)
  | Pfx p -> mix (mix h 4) (Prefix.to_int p)
  | Asn a -> mix (mix h 5) (Asn.to_int a)
  | List l -> if depth = 0 then mix h 6 else fold_list (mix h 6) (depth - 1) max_breadth l
  | Pair (a, b) ->
    if depth = 0 then mix h 7
    else fold (fold (mix h 7) (depth - 1) a) (depth - 1) b

and fold_list h depth budget = function
  | [] -> h
  | x :: rest ->
    if budget = 0 then h else fold_list (fold h depth x) depth (budget - 1) rest

let hash_fold h v = fold h max_depth v
let hash v = finish (hash_fold hash_seed v)
