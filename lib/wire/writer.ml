(* A growable byte buffer.  [contents] of a buffer filled exactly to its
   capacity hands the bytes over without copying them — the codec sizes
   every wire image before writing it, so writing is its only copy — and
   marks them [shared], so that a later write copies them out first
   instead of mutating a string already handed out. *)
type t = { mutable buf : bytes; mutable len : int; mutable shared : bool }

let create ?(capacity = 256) () =
  { buf = Bytes.create capacity; len = 0; shared = false }

let length b = b.len

let contents b =
  if b.len = Bytes.length b.buf then begin
    b.shared <- true;
    Bytes.unsafe_to_string b.buf
  end
  else Bytes.sub_string b.buf 0 b.len

let reset b = b.len <- 0

let reserve b n =
  if b.len + n > Bytes.length b.buf || b.shared then begin
    let buf = Bytes.create (max (b.len + n) (2 * Bytes.length b.buf)) in
    Bytes.blit b.buf 0 buf 0 b.len;
    b.buf <- buf;
    b.shared <- false
  end

let add_char b c =
  reserve b 1;
  Bytes.unsafe_set b.buf b.len c;
  b.len <- b.len + 1

let u8 b n =
  if n < 0 || n > 0xFF then invalid_arg "Writer.u8: out of range"
  else add_char b (Char.unsafe_chr n)

let u16 b n =
  if n < 0 || n > 0xFFFF then invalid_arg "Writer.u16: out of range"
  else begin
    add_char b (Char.unsafe_chr (n lsr 8));
    add_char b (Char.unsafe_chr (n land 0xFF))
  end

let u32 b n =
  if n < 0 || n > 0xFFFF_FFFF then invalid_arg "Writer.u32: out of range"
  else begin
    add_char b (Char.unsafe_chr ((n lsr 24) land 0xFF));
    add_char b (Char.unsafe_chr ((n lsr 16) land 0xFF));
    add_char b (Char.unsafe_chr ((n lsr 8) land 0xFF));
    add_char b (Char.unsafe_chr (n land 0xFF))
  end

let rec varint b n =
  if n < 0 then invalid_arg "Writer.varint: negative"
  else if n < 0x80 then add_char b (Char.unsafe_chr n)
  else begin
    add_char b (Char.unsafe_chr (0x80 lor (n land 0x7F)));
    varint b (n lsr 7)
  end

let bytes b s =
  let n = String.length s in
  reserve b n;
  Bytes.unsafe_blit_string s 0 b.buf b.len n;
  b.len <- b.len + n

let delimited b s =
  varint b (String.length s);
  bytes b s

let ipv4 b a = u32 b (Dbgp_types.Ipv4.to_int a)

let prefix b p =
  let len = Dbgp_types.Prefix.length p in
  u8 b len;
  let octets = (len + 7) / 8 in
  let net = Dbgp_types.Ipv4.to_int (Dbgp_types.Prefix.network p) in
  for i = 0 to octets - 1 do
    (* Shifted-and-masked octets are always in range; skip u8's check. *)
    add_char b (Char.unsafe_chr ((net lsr (24 - (8 * i))) land 0xFF))
  done

let asn b a = u32 b (Dbgp_types.Asn.to_int a)

(* Elements are written straight after their count; a caller that must
   frame a list sizes it first with [list_size]. *)
let rec write_all b f = function
  | [] -> ()
  | x :: rest ->
    f b x;
    write_all b f rest

let list b f xs =
  varint b (List.length xs);
  write_all b f xs

(* ------------------------------------------------------------------ *)
(* Sizes: what each writer above appends, computed without writing.
   They read lengths, never bytes, and allocate nothing. *)

let rec varint_size_from acc n =
  if n < 0x80 then acc else varint_size_from (acc + 1) (n lsr 7)

let varint_size n =
  if n < 0 then invalid_arg "Writer.varint: negative" else varint_size_from 1 n

let delimited_size s =
  let n = String.length s in
  varint_size n + n

let prefix_size p = 1 + ((Dbgp_types.Prefix.length p + 7) / 8)

let rec list_size_from f acc n = function
  | [] -> acc + varint_size n
  | x :: rest -> list_size_from f (acc + f x) (n + 1) rest

let list_size f xs = list_size_from f 0 0 xs
