exception Error of string

(* A reader is a window [base, stop) over [src]; [pos] is absolute.  A
   frame's sub-reader shares [src] with its parent, so framed input is
   never copied: only the leaf strings ([bytes], [delimited]) are, and
   [delimited_span] hands out a leaf's place in [src] instead.
   Positions reported to callers and in errors are relative to [base],
   exactly as if the frame had been copied out into its own string. *)
type t = { src : string; base : int; mutable pos : int; stop : int }

let of_string s = { src = s; base = 0; pos = 0; stop = String.length s }
let pos t = t.pos - t.base
let remaining t = t.stop - t.pos
let at_end t = remaining t = 0
let fail fmt = Printf.ksprintf (fun s -> raise (Error s)) fmt

let u8 t =
  if remaining t < 1 then fail "u8: truncated at %d" (pos t)
  else begin
    let c = Char.code (String.unsafe_get t.src t.pos) in
    t.pos <- t.pos + 1;
    c
  end

let u16 t =
  let hi = u8 t in
  let lo = u8 t in
  (hi lsl 8) lor lo

let u32 t =
  let hi = u16 t in
  let lo = u16 t in
  (hi lsl 16) lor lo

(* Canonical LEB128, bounded to OCaml's positive int range.  Two classes
   of hostile input are rejected rather than silently mangled:

   - overflow: at shift 56 only 6 payload bits remain below the sign bit
     (a 63-bit int holds 62 value bits), so the 9th byte must be a final
     byte with payload <= 0x3F — otherwise [(b land 0x7F) lsl 56] would
     wrap into the sign bit and a "length" would decode negative;
   - non-canonical zero continuations ([... 0x80 0x00]): a final byte of
     0 after at least one continuation byte encodes the same value as the
     shorter form, breaking decode/encode byte-level idempotence. *)
let varint t =
  let rec go shift acc =
    let b = u8 t in
    if b = 0 && shift > 0 then
      fail "varint: non-canonical trailing zero at %d" (pos t - 1)
    else if shift = 56 then
      if b land 0x80 <> 0 then fail "varint: too long at %d" (pos t - 1)
      else if b > 0x3F then fail "varint: overflow at %d" (pos t - 1)
      else acc lor (b lsl 56)
    else
      let acc = acc lor ((b land 0x7F) lsl shift) in
      if b land 0x80 = 0 then acc else go (shift + 7) acc
  in
  go 0 0

(* Advance past [n] bytes, returning where they start. *)
let skip t n =
  if n < 0 || remaining t < n then fail "bytes: need %d, have %d" n (remaining t)
  else begin
    let start = t.pos in
    t.pos <- t.pos + n;
    start
  end

let bytes t n =
  let start = skip t n in
  String.sub t.src start n

let source t = t.src

let delimited_span t =
  let n = varint t in
  (skip t n, n)

let delimited t =
  let n = varint t in
  bytes t n

let frame t =
  let n = varint t in
  let start = skip t n in
  { src = t.src; base = start; pos = start; stop = start + n }

let ipv4 t = Dbgp_types.Ipv4.of_int (u32 t)

let prefix t =
  let len = u8 t in
  if len > 32 then fail "prefix: bad length %d" len
  else begin
    let octets = (len + 7) / 8 in
    let net = ref 0 in
    for i = 0 to octets - 1 do
      net := !net lor (u8 t lsl (24 - (8 * i)))
    done;
    (* [Prefix.make] masks stray host bits away, which would let two
       distinct byte strings decode to the same prefix; canonical-form
       decoding must reject them instead. *)
    let mask = if len = 0 then 0 else 0xFFFF_FFFF lsl (32 - len) land 0xFFFF_FFFF in
    if !net land lnot mask land 0xFFFF_FFFF <> 0 then
      fail "prefix: stray host bits in /%d encoding" len
    else Dbgp_types.Prefix.make (Dbgp_types.Ipv4.of_int !net) len
  end

let asn t = Dbgp_types.Asn.of_int (u32 t)

(* [min_width] is the caller's lower bound on one element's encoding (in
   bytes); the count is checked against [remaining / min_width] before any
   allocation, so a hostile count cannot drive a large [List.init] only to
   fail on the first element. *)
let list ?(min_width = 1) t f =
  if min_width < 1 then invalid_arg "Reader.list: min_width must be positive";
  let n = varint t in
  if n > remaining t / min_width then
    fail "list: count %d exceeds buffer (%d bytes, >=%d each)" n (remaining t)
      min_width
  else List.init n (fun _ -> f t)
