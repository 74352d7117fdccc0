open Dbgp_types

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* ------------------------- Asn ------------------------- *)

let test_asn_bounds () =
  check_int "zero" 0 (Asn.to_int (Asn.of_int 0));
  check_int "max" 0xFFFF_FFFF (Asn.to_int (Asn.of_int 0xFFFF_FFFF));
  check "negative rejected" true (Asn.of_int_opt (-1) = None);
  check "too large rejected" true (Asn.of_int_opt 0x1_0000_0000 = None);
  Alcotest.check_raises "of_int raises" (Invalid_argument "Asn.of_int: -5 out of range")
    (fun () -> ignore (Asn.of_int (-5)))

let test_asn_strings () =
  check_int "plain" 65001 (Asn.to_int (Asn.of_string "65001"));
  check_int "asdot" ((1 lsl 16) lor 10) (Asn.to_int (Asn.of_string "1.10"));
  check_str "to_string" "65001" (Asn.to_string (Asn.of_int 65001));
  check "garbage" true (Asn.of_string_opt "x.y" = None);
  check "asdot overflow" true (Asn.of_string_opt "70000.1" = None)

let test_asn_reserved () =
  check "zero reserved" true (Asn.is_reserved Asn.zero);
  check "as_trans" true (Asn.is_reserved (Asn.of_int 23456));
  check "private16" true (Asn.is_private (Asn.of_int 64512));
  check "private32" true (Asn.is_private (Asn.of_int 4_200_000_000));
  check "normal not reserved" false (Asn.is_reserved (Asn.of_int 3356));
  check "private implies reserved" true (Asn.is_reserved (Asn.of_int 65000))

let test_asn_collections () =
  let s = Asn.Set.of_list [ Asn.of_int 3; Asn.of_int 1; Asn.of_int 3 ] in
  check_int "set dedup" 2 (Asn.Set.cardinal s);
  check "equal" true (Asn.equal (Asn.of_int 7) (Asn.of_int 7));
  check "compare" true (Asn.compare (Asn.of_int 1) (Asn.of_int 2) < 0)

(* ------------------------- Ipv4 ------------------------- *)

let test_ipv4_octets () =
  let a = Ipv4.of_octets 192 168 1 42 in
  check_str "to_string" "192.168.1.42" (Ipv4.to_string a);
  let x, y, z, w = Ipv4.to_octets a in
  check_int "o1" 192 x;
  check_int "o2" 168 y;
  check_int "o3" 1 z;
  check_int "o4" 42 w;
  Alcotest.check_raises "bad octet"
    (Invalid_argument "Ipv4.of_octets: octet out of range") (fun () ->
      ignore (Ipv4.of_octets 256 0 0 0))

let test_ipv4_strings () =
  check "roundtrip" true
    (Ipv4.equal (Ipv4.of_string "10.1.2.3") (Ipv4.of_octets 10 1 2 3));
  check "reject short" true (Ipv4.of_string_opt "10.1.2" = None);
  check "reject big octet" true (Ipv4.of_string_opt "10.1.2.300" = None);
  check "reject empty part" true (Ipv4.of_string_opt "10..2.3" = None);
  check "reject trailing" true (Ipv4.of_string_opt "1.2.3.4.5" = None)

let test_ipv4_succ_wraps () =
  check "succ" true
    (Ipv4.equal (Ipv4.succ (Ipv4.of_string "1.2.3.255")) (Ipv4.of_string "1.2.4.0"));
  check "wrap" true
    (Ipv4.equal (Ipv4.succ (Ipv4.of_string "255.255.255.255")) Ipv4.any)

let test_ipv4_int32 () =
  let a = Ipv4.of_string "255.0.0.1" in
  check "int32 roundtrip" true (Ipv4.equal (Ipv4.of_int32 (Ipv4.to_int32 a)) a)

(* ------------------------- Prefix ------------------------- *)

let test_prefix_canonical () =
  let p = Prefix.make (Ipv4.of_string "10.1.2.3") 8 in
  check_str "host bits zeroed" "10.0.0.0/8" (Prefix.to_string p);
  check "equal to clean" true (Prefix.equal p (Prefix.of_string "10.0.0.0/8"));
  Alcotest.check_raises "bad length" (Invalid_argument "Prefix.make: bad length 33")
    (fun () -> ignore (Prefix.make Ipv4.any 33))

let test_prefix_parse () =
  check "bare addr is /32" true
    (Prefix.equal (Prefix.of_string "1.2.3.4") (Prefix.make (Ipv4.of_string "1.2.3.4") 32));
  check "reject bad len" true (Prefix.of_string_opt "1.2.3.0/40" = None);
  check "reject junk" true (Prefix.of_string_opt "foo/8" = None)

let test_prefix_mem () =
  let p = Prefix.of_string "192.168.0.0/16" in
  check "inside" true (Prefix.mem (Ipv4.of_string "192.168.255.1") p);
  check "outside" false (Prefix.mem (Ipv4.of_string "192.169.0.1") p);
  check "default matches all" true (Prefix.mem (Ipv4.of_string "8.8.8.8") Prefix.default)

let test_prefix_subsumes () =
  let p8 = Prefix.of_string "10.0.0.0/8" and p16 = Prefix.of_string "10.1.0.0/16" in
  check "wider subsumes narrower" true (Prefix.subsumes p8 p16);
  check "narrower does not" false (Prefix.subsumes p16 p8);
  check "self" true (Prefix.subsumes p8 p8);
  check "disjoint" false (Prefix.subsumes p16 (Prefix.of_string "10.2.0.0/16"))

let test_prefix_split () =
  match Prefix.split (Prefix.of_string "10.0.0.0/8") with
  | None -> Alcotest.fail "should split"
  | Some (lo, hi) ->
    check_str "lo" "10.0.0.0/9" (Prefix.to_string lo);
    check_str "hi" "10.128.0.0/9" (Prefix.to_string hi);
    check "host unsplittable" true (Prefix.split (Prefix.of_string "1.2.3.4/32") = None)

(* The render memo must keep a run of /24s resident: the second pass
   over 64 consecutive /24s returns the very strings the first
   produced. *)
let test_prefix_to_string () =
  List.iter
    (fun (s, p) -> check_str s s (Prefix.to_string p))
    [ ("0.0.0.0/0", Prefix.default);
      ("255.255.255.255/32", Prefix.make (Ipv4.of_int 0xFFFF_FFFF) 32);
      ("10.0.0.0/8", Prefix.make (Ipv4.of_octets 10 1 2 3) 8);
      ("192.168.0.128/25", Prefix.make (Ipv4.of_octets 192 168 0 200) 25) ]

(* Every field is plain decimal: [int_of_string_opt] would also take
   signs, underscores and radix prefixes. *)
let test_prefix_strict () =
  List.iter
    (fun s -> check ("reject " ^ s) true (Prefix.of_string_opt s = None))
    [ "0x0a.0.0.0/8"; "10.0.0.0/1_6"; "10.0.0.0/+8"; "10.0.0.0/0x10";
      "-0.0.0.0/8"; "10.0.0.0/-0"; "10.0.0.0/"; "10.0.0.0/008"; "0o12.0.0.0/8";
      "10.0.0.0/0b1"; "1_0.0.0.0/8"; "10.0.0.0 /8"; "10.0.0.0/8 "; "0010.0.0.0/8" ];
  List.iter
    (fun s -> check ("reject " ^ s) true (Ipv4.of_string_opt s = None))
    [ "+1.2.3.4"; "1.2.3.0x4"; "1.2.3.-0"; "1.2.3.4_" ];
  (* Leading zeros within a field's width are still decimal. *)
  check "leading zeros" true
    (Prefix.of_string_opt "010.001.0.0/08"
    = Some (Prefix.make (Ipv4.of_octets 10 1 0 0) 8));
  check "bare address" true
    (Prefix.of_string_opt "010.0.0.1" = Some (Prefix.make (Ipv4.of_octets 10 0 0 1) 32))

let test_asn_strict () =
  List.iter
    (fun s -> check ("reject " ^ s) true (Asn.of_string_opt s = None))
    [ "0x10"; "1_000"; "+5"; "0o17"; "0b1"; "-0"; "1.0x1"; "1.+1"; "+1.1";
      "1._1"; ""; "."; "1."; ".1"; " 5"; "04294967295"; "000001.1" ];
  check_int "leading zeros" 17 (Asn.to_int (Asn.of_string "0017"));
  check_int "largest plain" 0xFFFF_FFFF (Asn.to_int (Asn.of_string "4294967295"));
  check "just past largest" true (Asn.of_string_opt "4294967296" = None);
  check_int "asdot leading zeros" 65537 (Asn.to_int (Asn.of_string "00001.00001"))

let test_prefix_bit () =
  let p = Prefix.of_string "128.0.0.0/2" in
  check "bit 0" true (Prefix.bit p 0);
  check "bit 1" false (Prefix.bit p 1);
  Alcotest.check_raises "out of range"
    (Invalid_argument "Prefix.bit: index out of range") (fun () ->
      ignore (Prefix.bit p 2))

(* ------------------------- Island_id ------------------------- *)

let test_island_ids () =
  check "singleton eq" true
    (Island_id.equal (Island_id.singleton (Asn.of_int 7)) (Island_id.singleton (Asn.of_int 7)));
  check "named vs singleton differ" false
    (Island_id.equal (Island_id.named "7") (Island_id.singleton (Asn.of_int 7)));
  check "hash order-insensitive" true
    (Island_id.equal
       (Island_id.of_border_asns [ Asn.of_int 1; Asn.of_int 2 ])
       (Island_id.of_border_asns [ Asn.of_int 2; Asn.of_int 1 ]));
  check "hash dedup" true
    (Island_id.equal
       (Island_id.of_border_asns [ Asn.of_int 1; Asn.of_int 1 ])
       (Island_id.of_border_asns [ Asn.of_int 1 ]));
  check_str "singleton renders as ASN" "7" (Island_id.to_string (Island_id.singleton (Asn.of_int 7)))

(* ------------------------- Protocol_id ------------------------- *)

let test_protocol_registry () =
  let p = Protocol_id.register ~kind:Protocol_id.Custom "test-proto-x" in
  let q = Protocol_id.register "test-proto-x" in
  check "idempotent" true (Protocol_id.equal p q);
  check "find" true (Protocol_id.find "test-proto-x" = Some p);
  check "by id" true (Protocol_id.of_int (Protocol_id.to_int p) = Some p);
  check "unknown" true (Protocol_id.find "never-registered-proto" = None)

let test_protocol_kinds () =
  check "bgp baseline" true (Protocol_id.kind Protocol_id.bgp = Protocol_id.Baseline);
  check "wiser fix" true (Protocol_id.kind Protocol_id.wiser = Protocol_id.Critical_fix);
  check "miro custom" true (Protocol_id.kind Protocol_id.miro = Protocol_id.Custom);
  check "scion replacement" true (Protocol_id.kind Protocol_id.scion = Protocol_id.Replacement);
  Alcotest.check_raises "reclassification rejected"
    (Invalid_argument "Protocol_id.register: bgp already registered") (fun () ->
      ignore (Protocol_id.register ~kind:Protocol_id.Replacement "bgp"))

let test_protocol_all () =
  let all = Protocol_id.all () in
  check "contains bgp" true (List.exists (Protocol_id.equal Protocol_id.bgp) all);
  (* Identity (and hence the enumeration order) is the registered name,
     never the registry number: id allocation order depends on which
     simulation domain first decoded a name, so it must stay invisible. *)
  check "sorted by name" true
    (List.for_all2
       (fun a b -> String.compare (Protocol_id.name a) (Protocol_id.name b) < 0)
       (List.filteri (fun i _ -> i < List.length all - 1) all)
       (List.tl all));
  check "compare follows names" true
    (List.for_all2
       (fun a b -> Protocol_id.compare a b < 0)
       (List.filteri (fun i _ -> i < List.length all - 1) all)
       (List.tl all))

(* ------------------------- Path_elem ------------------------- *)

let test_path_elem_loops () =
  let a n = Path_elem.As (Asn.of_int n) in
  check "no loop" false (Path_elem.has_loop [ a 1; a 2; a 3 ]);
  check "as loop" true (Path_elem.has_loop [ a 1; a 2; a 1 ]);
  check "island loop" true
    (Path_elem.has_loop
       [ Path_elem.Island (Island_id.named "X"); a 1; Path_elem.Island (Island_id.named "X") ]);
  check "set loop" true
    (Path_elem.has_loop [ a 1; Path_elem.as_set [ Asn.of_int 1; Asn.of_int 9 ] ]);
  check "set no loop" false
    (Path_elem.has_loop [ a 1; Path_elem.as_set [ Asn.of_int 2; Asn.of_int 3 ] ])

let test_path_elem_length () =
  let a n = Path_elem.As (Asn.of_int n) in
  check_int "set counts once" 3
    (Path_elem.path_length [ a 1; Path_elem.as_set [ Asn.of_int 2; Asn.of_int 3 ]; a 4 ])

let test_path_elem_canon () =
  match Path_elem.as_set [ Asn.of_int 3; Asn.of_int 1; Asn.of_int 3 ] with
  | Path_elem.As_set s ->
    check_int "sorted dedup" 2 (List.length s);
    check "sorted" true (List.map Asn.to_int s = [ 1; 3 ])
  | _ -> Alcotest.fail "expected As_set"

(* ------------------------- Prng ------------------------- *)

let test_prng_deterministic () =
  let a = Prng.create 11 and b = Prng.create 11 in
  let xs = List.init 20 (fun _ -> Prng.int a 1000) in
  let ys = List.init 20 (fun _ -> Prng.int b 1000) in
  check "same seed same stream" true (xs = ys);
  let c = Prng.create 12 in
  let zs = List.init 20 (fun _ -> Prng.int c 1000) in
  check "different seed differs" false (xs = zs)

let test_prng_bounds () =
  let t = Prng.create 5 in
  for _ = 1 to 500 do
    let v = Prng.int t 7 in
    check "in range" true (v >= 0 && v < 7);
    let w = Prng.int_in t 3 9 in
    check "int_in range" true (w >= 3 && w <= 9);
    let f = Prng.float t 2.5 in
    check "float range" true (f >= 0. && f < 2.5)
  done;
  Alcotest.check_raises "bad bound" (Invalid_argument "Prng.int: bound must be positive")
    (fun () -> ignore (Prng.int t 0))

let test_prng_shuffle_sample () =
  let t = Prng.create 99 in
  let arr = Array.init 50 Fun.id in
  let copy = Array.copy arr in
  Prng.shuffle t copy;
  check "permutation" true
    (List.sort compare (Array.to_list copy) = Array.to_list arr);
  let s = Prng.sample t 10 arr in
  check_int "sample size" 10 (Array.length s);
  check "distinct" true
    (List.length (List.sort_uniq compare (Array.to_list s)) = 10);
  Alcotest.check_raises "oversample" (Invalid_argument "Prng.sample: bad k")
    (fun () -> ignore (Prng.sample t 51 arr))

let test_prng_split () =
  let t = Prng.create 4 in
  let u = Prng.split t in
  let xs = List.init 10 (fun _ -> Prng.int t 100) in
  let ys = List.init 10 (fun _ -> Prng.int u 100) in
  check "split streams differ" false (xs = ys);
  (* Children are a pure function of the parent's seed and position:
     replaying the same seed reproduces both streams exactly. *)
  let t' = Prng.create 4 in
  let u' = Prng.split t' in
  check "replayed parent stream" true
    (xs = List.init 10 (fun _ -> Prng.int t' 100));
  check "replayed child stream" true
    (ys = List.init 10 (fun _ -> Prng.int u' 100));
  (* Splitting perturbs the parent: an unsplit generator with the same
     seed produces a different stream. *)
  let v = Prng.create 4 in
  check "split advances parent" false
    (xs = List.init 10 (fun _ -> Prng.int v 100))

let test_prng_split_n () =
  let draws g = List.init 8 (fun _ -> Prng.int g 1_000_000) in
  (* split_n = n successive splits, including the parent's final state. *)
  let a = Prng.create 7 and b = Prng.create 7 in
  let kids = Prng.split_n a 4 in
  let kids' = Array.init 4 (fun _ -> Prng.split b) in
  Array.iteri
    (fun i k -> check "split_n = iterated split" true (draws k = draws kids'.(i)))
    kids;
  check "parent advanced identically" true (draws a = draws b);
  (* Streams are pairwise independent-looking: no two children (or the
     parent) share a stream. *)
  let streams = draws a :: Array.to_list (Array.map draws (Prng.split_n a 6)) in
  check_int "all streams distinct" (List.length streams)
    (List.length (List.sort_uniq compare streams));
  check_int "zero children" 0 (Array.length (Prng.split_n a 0));
  Alcotest.check_raises "negative count"
    (Invalid_argument "Prng.split_n: negative count") (fun () ->
      ignore (Prng.split_n a (-1)))

(* ------------------------- properties ------------------------- *)

let qcheck =
  let open QCheck in
  [ Test.make ~name:"prefix string roundtrip" ~count:300
      (pair (int_bound 0xFFFFFF) (int_bound 32))
      (fun (net, len) ->
        let p = Prefix.make (Ipv4.of_int (net lsl 8)) len in
        Prefix.equal p (Prefix.of_string (Prefix.to_string p)));
    Test.make ~name:"subsumes implies mem of network" ~count:300
      (pair (int_bound 0xFFFFFF) (int_bound 24))
      (fun (net, len) ->
        let p = Prefix.make (Ipv4.of_int (net lsl 8)) len in
        Prefix.mem (Prefix.network p) p);
    Test.make ~name:"asn string roundtrip" ~count:300 (int_bound 0xFFFF_FFF)
      (fun n -> Asn.to_int (Asn.of_string (Asn.to_string (Asn.of_int n))) = n);
    Test.make ~name:"ipv4 string roundtrip" ~count:300 (int_bound 0xFFFF_FFF)
      (fun n ->
        let a = Ipv4.of_int n in
        Ipv4.equal a (Ipv4.of_string (Ipv4.to_string a)));
    Test.make ~name:"path without dup ASes has no loop" ~count:200
      (list_of_size (Gen.int_range 0 8) (int_bound 100000))
      (fun ns ->
        let uniq = List.sort_uniq compare ns in
        not (Path_elem.has_loop (List.map (fun n -> Path_elem.As (Asn.of_int n)) uniq)));
    (* The loop check scans pairs on short paths and uses sets past 32
       AS numbers; both must agree with the set-based definition: an AS
       or island twice, AS_SET members included, repeats inside one
       AS_SET excepted. *)
    Test.make ~name:"has_loop = set-based reference" ~count:500
      (let elem =
         Gen.(
           frequency
             [ (6, map (fun n -> Path_elem.As (Asn.of_int n)) (int_bound 40));
               (1, map (fun n -> Path_elem.Island (Island_id.named (string_of_int n))) (int_bound 6));
               (1, map (fun ns -> Path_elem.As_set (List.map Asn.of_int ns))
                     (list_size (int_range 1 12) (int_bound 40))) ])
       in
       make ~print:(fun pv -> Format.asprintf "%a" Path_elem.pp_path pv)
         Gen.(list_size (int_range 0 40) elem))
      (fun pv ->
        let reference =
          let rec go seen_as seen_isl = function
            | [] -> false
            | Path_elem.As a :: rest ->
              List.mem a seen_as || go (a :: seen_as) seen_isl rest
            | Path_elem.Island i :: rest ->
              List.exists (Island_id.equal i) seen_isl || go seen_as (i :: seen_isl) rest
            | Path_elem.As_set s :: rest ->
              List.exists (fun a -> List.mem a seen_as) s || go (s @ seen_as) seen_isl rest
          in
          go [] [] pv
        in
        Path_elem.has_loop pv = reference) ]

let () =
  Alcotest.run "types"
    [ ("asn",
       [ Alcotest.test_case "bounds" `Quick test_asn_bounds;
         Alcotest.test_case "strings" `Quick test_asn_strings;
         Alcotest.test_case "strict decimal" `Quick test_asn_strict;
         Alcotest.test_case "reserved" `Quick test_asn_reserved;
         Alcotest.test_case "collections" `Quick test_asn_collections ]);
      ("ipv4",
       [ Alcotest.test_case "octets" `Quick test_ipv4_octets;
         Alcotest.test_case "strings" `Quick test_ipv4_strings;
         Alcotest.test_case "succ" `Quick test_ipv4_succ_wraps;
         Alcotest.test_case "int32" `Quick test_ipv4_int32 ]);
      ("prefix",
       [ Alcotest.test_case "canonical" `Quick test_prefix_canonical;
         Alcotest.test_case "parse" `Quick test_prefix_parse;
         Alcotest.test_case "mem" `Quick test_prefix_mem;
         Alcotest.test_case "subsumes" `Quick test_prefix_subsumes;
         Alcotest.test_case "split" `Quick test_prefix_split;
         Alcotest.test_case "bit" `Quick test_prefix_bit;
         Alcotest.test_case "to_string" `Quick test_prefix_to_string;
         Alcotest.test_case "strict decimal" `Quick test_prefix_strict ]);
      ("island-id", [ Alcotest.test_case "identity" `Quick test_island_ids ]);
      ("protocol-id",
       [ Alcotest.test_case "registry" `Quick test_protocol_registry;
         Alcotest.test_case "kinds" `Quick test_protocol_kinds;
         Alcotest.test_case "all" `Quick test_protocol_all ]);
      ("path-elem",
       [ Alcotest.test_case "loops" `Quick test_path_elem_loops;
         Alcotest.test_case "length" `Quick test_path_elem_length;
         Alcotest.test_case "canonical sets" `Quick test_path_elem_canon ]);
      ("prng",
       [ Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
         Alcotest.test_case "bounds" `Quick test_prng_bounds;
         Alcotest.test_case "shuffle/sample" `Quick test_prng_shuffle_sample;
         Alcotest.test_case "split" `Quick test_prng_split;
         Alcotest.test_case "split_n" `Quick test_prng_split_n ]);
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck) ]
