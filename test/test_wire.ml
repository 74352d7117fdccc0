open Dbgp_types
module W = Dbgp_wire.Writer
module R = Dbgp_wire.Reader

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let roundtrip write read v =
  let w = W.create () in
  write w v;
  read (R.of_string (W.contents w))

let test_fixed_width () =
  check_int "u8" 200 (roundtrip W.u8 R.u8 200);
  check_int "u16" 0xBEEF (roundtrip W.u16 R.u16 0xBEEF);
  check_int "u32" 0xDEADBEEF (roundtrip W.u32 R.u32 0xDEADBEEF);
  Alcotest.check_raises "u8 range" (Invalid_argument "Writer.u8: out of range")
    (fun () -> ignore (roundtrip W.u8 R.u8 256));
  Alcotest.check_raises "u16 range" (Invalid_argument "Writer.u16: out of range")
    (fun () -> ignore (roundtrip W.u16 R.u16 (-1)))

let test_varint () =
  List.iter
    (fun n -> check_int (string_of_int n) n (roundtrip W.varint R.varint n))
    [ 0; 1; 127; 128; 300; 16383; 16384; 1_000_000; 1 lsl 40 ];
  Alcotest.check_raises "negative" (Invalid_argument "Writer.varint: negative")
    (fun () -> ignore (roundtrip W.varint R.varint (-1)))

let test_varint_encoding_size () =
  let size n =
    let w = W.create () in
    W.varint w n;
    W.length w
  in
  check_int "1 byte" 1 (size 127);
  check_int "2 bytes" 2 (size 128);
  check_int "3 bytes" 3 (size 16384)

let test_strings () =
  Alcotest.(check string) "delimited" "hello" (roundtrip W.delimited R.delimited "hello");
  Alcotest.(check string) "empty" "" (roundtrip W.delimited R.delimited "");
  let w = W.create () in
  W.bytes w "abc";
  let r = R.of_string (W.contents w) in
  Alcotest.(check string) "raw bytes" "abc" (R.bytes r 3);
  check "at end" true (R.at_end r)

let test_network_types () =
  let a = Ipv4.of_string "203.0.113.7" in
  check "ipv4" true (Ipv4.equal a (roundtrip W.ipv4 R.ipv4 a));
  let asn = Asn.of_int 4_200_000_001 in
  check "asn 4-byte" true (Asn.equal asn (roundtrip W.asn R.asn asn));
  List.iter
    (fun s ->
      let p = Prefix.of_string s in
      check s true (Prefix.equal p (roundtrip W.prefix R.prefix p)))
    [ "0.0.0.0/0"; "10.0.0.0/8"; "192.168.4.0/22"; "1.2.3.4/32"; "128.0.0.0/1" ]

let test_prefix_compactness () =
  (* NLRI-style: /8 needs 1 address octet, /32 needs 4. *)
  let size s =
    let w = W.create () in
    W.prefix w (Prefix.of_string s);
    W.length w
  in
  check_int "/8" 2 (size "10.0.0.0/8");
  check_int "/16" 3 (size "10.1.0.0/16");
  check_int "/32" 5 (size "1.2.3.4/32");
  check_int "/0" 1 (size "0.0.0.0/0")

let test_lists () =
  let xs = [ 3; 1; 4; 1; 5; 9; 2; 6 ] in
  let ys = roundtrip (fun w -> W.list w W.varint) (fun r -> R.list r R.varint) xs in
  check "list roundtrip" true (xs = ys);
  check "empty list" true
    ([] = roundtrip (fun w -> W.list w W.varint) (fun r -> R.list r R.varint) [])

let test_errors () =
  let truncated f s = try ignore (f (R.of_string s)); false with R.Error _ -> true in
  check "u8 empty" true (truncated R.u8 "");
  check "u32 short" true (truncated R.u32 "ab");
  check "delimited short" true (truncated R.delimited "\x05ab");
  check "prefix bad len" true (truncated R.prefix "\x2a");
  check "list count too big" true
    (truncated (fun r -> R.list r R.u8) "\x7fab");
  check "varint overlong" true
    (truncated R.varint "\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff")

(* Hardening: the 9th varint byte lands at shift 56, where OCaml's int
   has only 6 value bits left — anything above 0x3F would wrap into the
   sign bit and come back negative. *)
let test_varint_overflow () =
  let rejected s = try ignore (R.varint (R.of_string s)); false with R.Error _ -> true in
  check_int "max_int roundtrips" max_int (roundtrip W.varint R.varint max_int);
  check_int "0 roundtrips" 0 (roundtrip W.varint R.varint 0);
  (* 8 continuation bytes of zero payload then 0x7F: 0x7F lsl 56 would be
     negative. *)
  check "9th byte 0x7f rejected" true
    (rejected "\x80\x80\x80\x80\x80\x80\x80\x80\x7f");
  check "9th byte 0xff rejected" true
    (rejected "\xff\xff\xff\xff\xff\xff\xff\xff\xff\x00");
  (* 0x40 is the first payload that no longer fits (max_int's top byte is
     0x3F); 0x3F itself is the boundary and must decode. *)
  check "9th byte 0x40 rejected" true
    (rejected "\xff\xff\xff\xff\xff\xff\xff\xff\x40");
  check_int "9th byte 0x3f accepted" max_int
    (R.varint (R.of_string "\xff\xff\xff\xff\xff\xff\xff\xff\x3f"));
  (* Non-canonical: a continuation byte followed by zero decodes to the
     same value as the short form and must be rejected. *)
  check "0x80 0x00 rejected" true (rejected "\x80\x00");
  check "0xff 0x00 rejected" true (rejected "\xff\x00");
  check "0x80 0x80 0x00 rejected" true (rejected "\x80\x80\x00")

(* Hardening: stray bits inside the last prefix octet used to be silently
   masked off by Prefix.make, so two different byte strings decoded to the
   same prefix. *)
let test_prefix_noncanonical () =
  let rejected s = try ignore (R.prefix (R.of_string s)); false with R.Error _ -> true in
  check "/4 with host bits" true (rejected "\x04\xff");
  check "/30 with host bits" true (rejected "\x1e\x01\x02\x03\xff");
  check "/8 with second octet" false (rejected "\x08\x0a");
  check "/0 canonical" false (rejected "\x00");
  check "canonical /4" true
    (Prefix.equal (Prefix.of_string "240.0.0.0/4") (R.prefix (R.of_string "\x04\xf0")))

(* Hardening: the list-count guard scales with the caller's minimum
   element width, so a count that fits "1 byte each" no longer passes for
   4-byte elements. *)
let test_list_count_bombs () =
  let rejected ?min_width f s =
    try ignore (R.list ?min_width (R.of_string s) f); false with R.Error _ -> true
  in
  (* count 1000, empty payload *)
  let bomb =
    let w = W.create () in
    W.varint w 1000;
    W.contents w
  in
  check "u8 bomb" true (rejected R.u8 bomb);
  check "u32 bomb" true (rejected ~min_width:4 R.u32 bomb);
  (* count 3 with 3 bytes left: passes the default guard, not the 4-byte
     one. *)
  let tight =
    let w = W.create () in
    W.varint w 3;
    W.bytes w "abc";
    W.contents w
  in
  check "3 u8s fit" false (rejected R.u8 tight);
  check "3 u32s cannot fit" true (rejected ~min_width:4 R.u32 tight);
  Alcotest.check_raises "min_width 0"
    (Invalid_argument "Reader.list: min_width must be positive") (fun () ->
      ignore (R.list ~min_width:0 (R.of_string "\x00") R.u8))

let test_reader_positions () =
  let r = R.of_string "abcdef" in
  check_int "pos 0" 0 (R.pos r);
  ignore (R.bytes r 2);
  check_int "pos 2" 2 (R.pos r);
  check_int "remaining" 4 (R.remaining r)

let test_writer_reset () =
  let w = W.create () in
  W.u32 w 42;
  check_int "len before" 4 (W.length w);
  W.reset w;
  check_int "len after" 0 (W.length w)

(* Zero-copy frames: a sub-reader shares its parent's string, so the
   bound is all that keeps a body from reading into its neighbour. *)
let test_frame_bounds () =
  let w = W.create () in
  W.delimited w "\x01\x02\x03";
  W.u8 w 0xAA;
  let r = R.of_string (W.contents w) in
  let sub = R.frame r in
  check_int "sub remaining is the frame" 3 (R.remaining sub);
  check "sub not at end" false (R.at_end sub);
  check_int "parent advanced past the frame" 1 (R.remaining r);
  check_int "sub pos counts from the frame" 0 (R.pos sub);
  check_int "first byte" 1 (R.u8 sub);
  check_int "sub pos 1" 1 (R.pos sub);
  check_int "u16 inside" 0x0203 (R.u16 sub);
  check "sub at end at the bound" true (R.at_end sub);
  check "reading past the bound raises" true
    (try ignore (R.u8 sub); false with R.Error _ -> true);
  check_int "neighbour untouched" 0xAA (R.u8 r);
  check "parent at end" true (R.at_end r);
  (* A nested length that overruns the frame is caught by the frame's
     bound even though the parent string has bytes to spare. *)
  let sub = R.frame (R.of_string "\x02\x05abcdefgh") in
  check "inner delimited overruns frame" true
    (try ignore (R.delimited sub); false with R.Error _ -> true);
  check "bounded list count" true
    (try ignore (R.list (R.frame (R.of_string "\x02\x05a")) R.u8); false
     with R.Error _ -> true);
  (* A frame longer than the buffer is a framing error. *)
  check "frame past the buffer" true
    (try ignore (R.frame (R.of_string "\x05abc")); false with R.Error _ -> true);
  check "empty frame" true (R.at_end (R.frame (R.of_string "\x00")))

(* [delimited_span] reads what [delimited] reads, in place: inside a
   frame its offset indexes the whole source string, and a field that
   overruns the frame fails with [delimited]'s error. *)
let test_delimited_span () =
  let w = W.create () in
  W.u8 w 0xAA;
  W.delimited w (String.concat "" [ "\x02"; "hi"; "\x01"; "z" ]);
  let src = W.contents w in
  let r = R.of_string src in
  ignore (R.u8 r);
  let sub = R.frame r in
  check "source is shared" true (R.source sub == src);
  let off, n = R.delimited_span sub in
  Alcotest.(check string) "field bytes" "hi" (String.sub (R.source sub) off n);
  check_int "offset into the source" 3 off;
  check_int "advanced past the field" 3 (R.pos sub);
  Alcotest.(check string) "next field" "z" (R.delimited sub);
  let error f s = try ignore (f (R.frame (R.of_string s))); "" with R.Error m -> m in
  Alcotest.(check string) "delimited overrun" "bytes: need 5, have 1"
    (error R.delimited "\x02\x05abcdefgh");
  Alcotest.(check string) "same overrun error" "bytes: need 5, have 1"
    (error R.delimited_span "\x02\x05abcdefgh")

(* Size functions agree with the writers they size. *)
let test_sizes () =
  let written f =
    let w = W.create ~capacity:0 () in
    f w;
    W.length w
  in
  List.iter
    (fun n -> check_int (string_of_int n) (written (fun w -> W.varint w n)) (W.varint_size n))
    [ 0; 1; 127; 128; 16383; 16384; 1 lsl 40; max_int ];
  List.iter
    (fun s -> check_int "delimited" (written (fun w -> W.delimited w s)) (W.delimited_size s))
    [ ""; "a"; String.make 200 'x'; String.make 20000 'y' ];
  List.iter
    (fun s ->
      let p = Prefix.of_string s in
      check_int s (written (fun w -> W.prefix w p)) (W.prefix_size p))
    [ "0.0.0.0/0"; "10.0.0.0/8"; "10.1.0.0/16"; "192.168.4.0/22"; "1.2.3.4/32" ];
  let xs = List.init 300 Fun.id in
  check_int "list" (written (fun w -> W.list w W.varint xs)) (W.list_size W.varint_size xs);
  check_int "empty list" 1 (W.list_size W.varint_size []);
  Alcotest.check_raises "negative size" (Invalid_argument "Writer.varint: negative")
    (fun () -> ignore (W.varint_size (-1)))

(* [contents] of an exactly full writer hands its bytes over without a
   copy; the writer must still behave like a buffer afterwards. *)
let test_writer_handover () =
  let w = W.create ~capacity:3 () in
  W.bytes w "abc";
  let s = W.contents w in
  Alcotest.(check string) "full contents" "abc" s;
  W.bytes w "de";
  Alcotest.(check string) "earlier string unchanged" "abc" s;
  Alcotest.(check string) "appends after handover" "abcde" (W.contents w);
  W.reset w;
  W.u8 w (Char.code 'z');
  Alcotest.(check string) "earlier string survives reset" "abc" s;
  Alcotest.(check string) "reset" "z" (W.contents w)

(* ------------------------- compression ------------------------- *)

module C = Dbgp_wire.Compress

let test_compress_roundtrip_basics () =
  List.iter
    (fun s -> Alcotest.(check string) "roundtrip" s (C.decompress (C.compress s)))
    [ ""; "x"; "abcabcabcabcabcabc"; String.make 5000 'q';
      String.init 3000 (fun i -> Char.chr (i * 7 mod 256));
      "no repetition here at all, or almost" ]

let test_compress_shrinks_repetitive () =
  let s = String.concat "" (List.init 200 (fun _ -> "wiser-cost=100;")) in
  check "repetitive input shrinks a lot" true
    (String.length (C.compress s) < String.length s / 4);
  check "ratio reported" true (C.ratio s < 0.25);
  check "empty ratio is 1" true (C.ratio "" = 1.)

let test_compress_bounded_expansion () =
  (* worst case: high-entropy input *)
  let s = String.init 4096 (fun i -> Char.chr ((i * 167 + (i * i mod 253)) mod 256)) in
  check "expansion bounded" true
    (String.length (C.compress s) <= (String.length s * 9 / 8) + 8)

let test_compress_malformed () =
  let bad s = try ignore (C.decompress s); false with Invalid_argument _ -> true in
  check "empty" true (bad "");
  check "bad version" true (bad "\x09\x00\x00\x00\x05abcde");
  check "truncated body" true
    (bad (String.sub (C.compress (String.make 100 'z')) 0 8));
  check "length lies" true
    (bad ("\x01\x00\x00\xff\xff" ^ "\xff" ^ "ab"))

let qcheck =
  let open QCheck in
  [ Test.make ~name:"compress roundtrip" ~count:300 string (fun s ->
        C.decompress (C.compress s) = s);
    Test.make ~name:"compress roundtrip on repetitive strings" ~count:100
      (pair small_string (int_range 1 100))
      (fun (chunk, reps) ->
        let s = String.concat "" (List.init reps (fun _ -> chunk)) in
        C.decompress (C.compress s) = s);
    Test.make ~name:"decompress never crashes unexpectedly" ~count:300 string
      (fun s ->
        match C.decompress s with
        | _ -> true
        | exception Invalid_argument _ -> true);
    Test.make ~name:"varint roundtrip" ~count:500 (int_bound max_int) (fun n ->
        roundtrip W.varint R.varint n = n);
    Test.make ~name:"varint edge values roundtrip" ~count:100
      (oneofl [ 0; 1; 127; 128; max_int - 1; max_int; 1 lsl 56; (1 lsl 56) - 1 ])
      (fun n -> roundtrip W.varint R.varint n = n);
    Test.make ~name:"prefix roundtrip (canonicalized)" ~count:300
      (pair (int_bound 0xFFFF_FFFF) (int_bound 32))
      (fun (addr, len) ->
        (* Prefix.make masks host bits, so the written form is canonical
           and must survive the reader's strictness. *)
        let p = Prefix.make (Ipv4.of_int addr) len in
        Prefix.equal p (roundtrip W.prefix R.prefix p));
    Test.make ~name:"delimited roundtrip" ~count:300 string (fun s ->
        roundtrip W.delimited R.delimited s = s);
    Test.make ~name:"u32 roundtrip" ~count:300 (int_bound 0xFFFF_FFFF) (fun n ->
        roundtrip W.u32 R.u32 n = n);
    Test.make ~name:"concatenated fields decode in order" ~count:200
      (pair (int_bound 1000000) string) (fun (n, s) ->
        let w = W.create () in
        W.varint w n;
        W.delimited w s;
        let r = R.of_string (W.contents w) in
        R.varint r = n && R.delimited r = s && R.at_end r) ]

let () =
  Alcotest.run "wire"
    [ ("fixed-width", [ Alcotest.test_case "u8/u16/u32" `Quick test_fixed_width ]);
      ("varint",
       [ Alcotest.test_case "roundtrip" `Quick test_varint;
         Alcotest.test_case "sizes" `Quick test_varint_encoding_size ]);
      ("strings", [ Alcotest.test_case "delimited" `Quick test_strings ]);
      ("network",
       [ Alcotest.test_case "ipv4/asn/prefix" `Quick test_network_types;
         Alcotest.test_case "prefix compactness" `Quick test_prefix_compactness ]);
      ("lists", [ Alcotest.test_case "roundtrip" `Quick test_lists ]);
      ("frames",
       [ Alcotest.test_case "sub-reader bounds" `Quick test_frame_bounds;
         Alcotest.test_case "delimited span in place" `Quick test_delimited_span;
         Alcotest.test_case "sizes match writers" `Quick test_sizes;
         Alcotest.test_case "contents handover" `Quick test_writer_handover ]);
      ("compress",
       [ Alcotest.test_case "roundtrip basics" `Quick test_compress_roundtrip_basics;
         Alcotest.test_case "shrinks repetitive" `Quick test_compress_shrinks_repetitive;
         Alcotest.test_case "bounded expansion" `Quick test_compress_bounded_expansion;
         Alcotest.test_case "malformed" `Quick test_compress_malformed ]);
      ("errors",
       [ Alcotest.test_case "malformed input" `Quick test_errors;
         Alcotest.test_case "positions" `Quick test_reader_positions;
         Alcotest.test_case "reset" `Quick test_writer_reset ]);
      ("hardening",
       [ Alcotest.test_case "varint overflow" `Quick test_varint_overflow;
         Alcotest.test_case "non-canonical prefix" `Quick test_prefix_noncanonical;
         Alcotest.test_case "list-count bombs" `Quick test_list_count_bombs ]);
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck) ]
