open Dbgp_types

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* ------------------------- Asn ------------------------- *)

let test_asn_bounds () =
  check_int "zero" 0 (Asn.to_int (Asn.of_int 0));
  check_int "max" 0xFFFF_FFFF (Asn.to_int (Asn.of_int 0xFFFF_FFFF));
  check "negative rejected" true (Asn.of_string_opt "-1" = None);
  check "too large rejected" true (Asn.of_string_opt "4294967296" = None);
  Alcotest.check_raises "of_int raises" (Invalid_argument "Asn.of_int: -5 out of range")
    (fun () -> ignore (Asn.of_int (-5)))

let test_asn_strings () =
  check_int "plain" 65001 (Asn.to_int (Asn.of_string "65001"));
  check_int "asdot" ((1 lsl 16) lor 10) (Asn.to_int (Asn.of_string "1.10"));
  check_str "to_string" "65001" (Asn.to_string (Asn.of_int 65001));
  check "garbage" true (Asn.of_string_opt "x.y" = None);
  check "asdot overflow" true (Asn.of_string_opt "70000.1" = None)

let test_asn_collections () =
  let s = Asn.Set.of_list [ Asn.of_int 3; Asn.of_int 1; Asn.of_int 3 ] in
  check_int "set dedup" 2 (Asn.Set.cardinal s);
  check "equal" true (Asn.equal (Asn.of_int 7) (Asn.of_int 7));
  check "compare" true (Asn.compare (Asn.of_int 1) (Asn.of_int 2) < 0)

(* ------------------------- Ipv4 ------------------------- *)

let test_ipv4_octets () =
  let a = Ipv4.of_octets 192 168 1 42 in
  check_str "to_string" "192.168.1.42" (Ipv4.to_string a);
  check_int "packed" 0xC0A8012A (Ipv4.to_int a);
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

(* [Prefix.sort] against a comparison sort, on both sides of its
   radix threshold: prefixes of every length, the extremes and
   duplicates included. *)
let test_prefix_sort () =
  let rng = Random.State.make [| 11 |] in
  let random_prefix () =
    let a = (Random.State.bits rng lsl 2) lxor Random.State.bits rng in
    Prefix.make (Ipv4.of_int (a land 0xFFFF_FFFF)) (Random.State.int rng 33)
  in
  List.iter
    (fun n ->
      let a = Array.init n (fun _ -> random_prefix ()) in
      if n > 2 then begin
        a.(0) <- Prefix.of_string "255.255.255.255/32";
        a.(1) <- Prefix.of_string "0.0.0.0/0";
        a.(2) <- a.(n - 1)
      end;
      let expected = Array.copy a in
      Array.sort Prefix.compare expected;
      Prefix.sort a;
      check (Printf.sprintf "%d prefixes" n) true (a = expected))
    [ 0; 1; 2; 3; 1023; 1024; 1025; 5000; 70_000 ]

let test_asn_strict () =
  List.iter
    (fun s -> check ("reject " ^ s) true (Asn.of_string_opt s = None))
    [ "0x10"; "1_000"; "+5"; "0o17"; "0b1"; "-0"; "1.0x1"; "1.+1"; "+1.1";
      "1._1"; ""; "."; "1."; ".1"; " 5"; "04294967295"; "000001.1" ];
  check_int "leading zeros" 17 (Asn.to_int (Asn.of_string "0017"));
  check_int "largest plain" 0xFFFF_FFFF (Asn.to_int (Asn.of_string "4294967295"));
  check "just past largest" true (Asn.of_string_opt "4294967296" = None);
  check_int "asdot leading zeros" 65537 (Asn.to_int (Asn.of_string "00001.00001"))

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

(* ------------------------- Int_tbl ------------------------- *)

module Probe = Int_tbl.For_tests

(* The first /32s of 10.0.0.0/8 whose probe chain starts at [slot] of
   a table of [Prefix.Tbl.create 0]'s capacity. *)
let homed_at slot n =
  let fresh = Prefix.Tbl.create 0 in
  let rec go a acc k =
    if k = 0 then List.rev acc
    else
      let q = Prefix.make (Ipv4.of_int a) 32 in
      if Probe.home fresh (Prefix.to_int q) = slot then go (a + 1) (q :: acc) (k - 1)
      else go (a + 1) acc k
  in
  go 0x0A000000 [] n

let test_tbl_sizing () =
  List.iter
    (fun n ->
      let t = Int_tbl.create n in
      let cap = Probe.capacity t in
      for k = 0 to n - 1 do
        Int_tbl.replace t k k
      done;
      check (Printf.sprintf "create %d holds %d" n n) true
        (Probe.capacity t = cap && Int_tbl.length t = n);
      Int_tbl.replace t n n;
      check (Printf.sprintf "grows past 7/8 at %d" n) true
        (8 * (n + 1) <= 7 * Probe.capacity t))
    [ 0; 1; 7; 8; 100; 896; 50_032 ];
  let t = Int_tbl.create 0 in
  for k = 0 to 999 do
    Int_tbl.replace t (k * 7919) ()
  done;
  Int_tbl.reset t;
  check_int "reset shrinks" (Probe.capacity (Int_tbl.create 0)) (Probe.capacity t);
  check_int "reset empties" 0 (Int_tbl.length t);
  check "reset forgets" false (Int_tbl.mem t 7919);
  Int_tbl.replace t 7919 ();
  check "reusable" true (Int_tbl.mem t 7919 && Int_tbl.length t = 1);
  Alcotest.check_raises "negative key"
    (Invalid_argument "Int_tbl.replace: negative key") (fun () ->
      Int_tbl.replace t (-1) ());
  check "negative key unbound" true
    (Int_tbl.find_opt t (-1) = None && not (Int_tbl.mem t (-1)))

(* Keys homed at the last slot wrap to slot 0; removing the head of the
   chain shifts the rest back across the wrap. *)
let test_tbl_wrap () =
  let t = Prefix.Tbl.create 0 in
  let cap = Probe.capacity t in
  match homed_at (cap - 1) 5 with
  | absent :: (head :: _ as chain) ->
    List.iteri (fun i q -> Prefix.Tbl.replace t q i) chain;
    check_int "no growth" cap (Probe.capacity t);
    List.iteri
      (fun i q -> check "wrapped key found" true (Prefix.Tbl.find_opt t q = Some i))
      chain;
    check "absent key misses" false (Prefix.Tbl.mem t absent);
    check "chain probes" true (Probe.mean_probe t = 2.5);
    Prefix.Tbl.remove t head;
    check "head gone" false (Prefix.Tbl.mem t head);
    List.iteri
      (fun i q -> if i > 0 then check "shifted key found" true (Prefix.Tbl.find_opt t q = Some i))
      chain;
    check "shifted back" true (Probe.mean_probe t = 2.);
    check_int "count" 3 (Prefix.Tbl.length t)
  | _ -> assert false

(* The bindings that are not the table's fill must not outlive their
   removal, replacement or a reset.  The payloads are made and bound
   out of line so no stack slot of the test keeps one alive. *)
let bind_fresh t w i k =
  let v = Bytes.make 8 (Char.chr (65 + i)) in
  Weak.set w i (Some v);
  Int_tbl.replace t k v

let test_tbl_retention () =
  let t = Int_tbl.create 0 and w = Weak.create 5 in
  let bind = Sys.opaque_identity bind_fresh in
  (* Payload 0, the first binding, fills the empty slots.  The chain
     takes slots 4 to 6 and slot 7 stays empty. *)
  bind t w 0 (Prefix.to_int (List.hd (homed_at 1 1)));
  let chain = List.map Prefix.to_int (homed_at 4 3) in
  List.iteri (fun i k -> bind t w (i + 1) k) chain;
  bind t w 4 (List.nth chain 2);
  (* The chain's tail leaves a hole nothing shifts into; removing its
     head shifts the next key back over the hole. *)
  Int_tbl.remove t (List.nth chain 2);
  Int_tbl.remove t (List.nth chain 0);
  Gc.full_major ();
  let gone i = not (Weak.check w i) in
  check "replaced payload freed" true (gone 3);
  check "removed payloads freed" true (gone 4 && gone 1);
  check "live payload kept" true (Weak.check w 2);
  Int_tbl.reset t;
  Gc.full_major ();
  check "reset frees" true (gone 2)

(* Key families the simulator uses, each filled to the 7/8 load a
   table reaches just before it grows. *)
let families =
  let pack_pair a b = (a lsl 31) lor b in
  [ ("sequential 99.x.y.0/24", fun i ->
        Prefix.to_int (Prefix.make (Ipv4.of_octets 99 (i lsr 8) (i land 0xFF) 0) 24));
    ("stress-32k base /24s", fun i ->
        Prefix.to_int
          (Prefix.make (Ipv4.of_int (((i * 2654435761) land 0xFFFFFF) lsl 8)) 24));
    ("collector feed /24s", fun i ->
        Prefix.to_int
          (Prefix.make
             (Ipv4.of_int (0xC0000000 lor (((i * 2654435761) land 0x3FFFFF) lsl 8)))
             24));
    ("ASNs", fun i -> i + 1);
    ("packed ASN pairs", fun i -> pack_pair (1 + (i / 240)) (1 + (i mod 240))) ]

(* Uniformly random keys would read 4.5 at this load, and the chained
   table's multiply-and-fold hash read 9.7 on the stress-32k family. *)
let test_tbl_spread () =
  List.iter
    (fun (bits, bound) ->
      let cap = 1 lsl bits in
      let n = cap - (cap / 8) in
      List.iter
        (fun (name, key) ->
          let t = Int_tbl.create n in
          for i = 0 to n - 1 do
            Int_tbl.replace t (key i) ()
          done;
          let mean = Probe.mean_probe t in
          check
            (Printf.sprintf "%s, %d in %d slots: mean probe %.2f" name n cap mean)
            true
            (Probe.capacity t = cap && Int_tbl.length t = n && mean <= bound))
        families)
    [ (10, 2.5); (16, 3.0) ]

type op =
  | Replace of int * int
  | Remove of int
  | Find of int
  | Reset

(* [Prefix.Tbl] against [Prefix.Map].  The key pool mixes /32s that
   share a home slot, /32s homed at the last slot (their chains wrap)
   and scattered prefixes; a run of replaces pushes the table across
   its 7/8 growth point and [Reset] shrinks it back for reuse. *)
let tbl_model =
  let open QCheck in
  let pool =
    Array.of_list
      (homed_at 7 5 @ homed_at 2 4
      @ List.init 40 (fun i -> Prefix.make (Ipv4.of_int (i * 0x01000100)) (8 + (i mod 25))))
  in
  let gen_op =
    Gen.(
      frequency
        [ (6, map2 (fun k v -> Replace (k, v)) (int_bound (Array.length pool - 1)) small_nat);
          (3, map (fun k -> Remove k) (int_bound (Array.length pool - 1)));
          (3, map (fun k -> Find k) (int_bound (Array.length pool - 1)));
          (1, return Reset) ])
  in
  let print_op = function
    | Replace (k, v) -> Printf.sprintf "replace %d %d" k v
    | Remove k -> Printf.sprintf "remove %d" k
    | Find k -> Printf.sprintf "find %d" k
    | Reset -> "reset"
  in
  Test.make ~name:"Prefix.Tbl = Map model" ~count:500
    (make ~print:(Print.list print_op) Gen.(list_size (int_range 0 120) gen_op))
    (fun ops ->
      let t = Prefix.Tbl.create 0 in
      let agree m =
        Prefix.Tbl.length t = Prefix.Map.cardinal m
        && List.sort compare (Prefix.Tbl.fold (fun p v acc -> (p, v) :: acc) t [])
           = Prefix.Map.bindings m
        && Array.for_all
             (fun p ->
               Prefix.Tbl.find_opt t p = Prefix.Map.find_opt p m
               && Prefix.Tbl.mem t p = Prefix.Map.mem p m)
             pool
      in
      let step m = function
        | Replace (k, v) ->
          Prefix.Tbl.replace t pool.(k) v;
          Prefix.Map.add pool.(k) v m
        | Remove k ->
          Prefix.Tbl.remove t pool.(k);
          Prefix.Map.remove pool.(k) m
        | Find k ->
          ( match Prefix.Map.find_opt pool.(k) m with
            | Some v -> if Prefix.Tbl.find t pool.(k) <> v then failwith "find"
            | None -> (
              match Prefix.Tbl.find t pool.(k) with
              | _ -> failwith "find of an unbound key"
              | exception Not_found -> () ) );
          m
        | Reset ->
          Prefix.Tbl.reset t;
          Prefix.Map.empty
      in
      let rec run m = function
        | [] -> true
        | op :: rest ->
          let m = step m op in
          agree m && run m rest
      in
      run Prefix.Map.empty ops)

(* ------------------------- Intern ------------------------- *)

module Str_hash = struct
  type t = string

  let equal = String.equal
  let hash = Hashtbl.hash
end

(* Every value collides: each probe walks the whole cluster and only
   the predicate tells values apart. *)
module Const_hash = struct
  include Str_hash

  let hash _ = 7
end

module Str_intern = Intern.Make (Str_hash)
module Const_intern = Intern.Make (Const_hash)

type intern_op = Intern of int | Probe of int | Clear

(* [Intern.Make] against a [Hashtbl] that keeps the first copy of each
   string.  Every operation hands the table a fresh copy, so a hit must
   return the first copy physically.  150 keys from a table created
   for at most 20 take it through several doublings; [Clear] shrinks it
   back.  [Probe] is [find_or_intern] with the table's hash and
   equality, which must answer as [intern] does and build only on a
   miss. *)
let intern_model name (module I : Intern.S with type value = string) hash =
  let open QCheck in
  let gen_op =
    Gen.(
      frequency
        [ (6, map (fun k -> Intern k) (int_bound 149));
          (4, map (fun k -> Probe k) (int_bound 149));
          (1, return Clear) ])
  in
  let print_op = function
    | Intern k -> Printf.sprintf "intern %d" k
    | Probe k -> Printf.sprintf "probe %d" k
    | Clear -> "clear"
  in
  Test.make ~name ~count:300
    (make
       ~print:Print.(pair int (list print_op))
       Gen.(pair (int_bound 20) (list_size (int_range 0 400) gen_op)))
    (fun (size, ops) ->
      let t = I.create size in
      let reference = Hashtbl.create 16 and hits = ref 0 and misses = ref 0 in
      let answer x r ~built =
        match Hashtbl.find_opt reference x with
        | Some first ->
          incr hits;
          r == first && not built
        | None ->
          Hashtbl.add reference x x;
          incr misses;
          r == x
      in
      let step = function
        | Intern k ->
          let x = "key-" ^ string_of_int k in
          answer x (I.intern t x) ~built:false
        | Probe k ->
          let x = "key-" ^ string_of_int k and built = ref false in
          let r =
            I.find_or_intern t (hash x) (String.equal x) (fun () ->
                built := true;
                x)
          in
          answer x r ~built:!built
        | Clear ->
          I.clear t;
          Hashtbl.reset reference;
          true
      in
      List.for_all
        (fun op ->
          step op
          && I.length t = Hashtbl.length reference
          && I.stats t
             = { Intern.hits = !hits; misses = !misses;
                 size = Hashtbl.length reference; clears = 0 })
        ops)

(* At 65,536 entries the next miss resets the table wholesale and
   counts a clear.  Values handed out before stay valid; only their
   sharing is lost, so an equal value afterwards is a miss that returns
   the new copy. *)
let test_intern_reset () =
  let t = Str_intern.create 0 in
  let v0 = Str_intern.intern t ("v" ^ string_of_int 0) in
  for i = 1 to 65_535 do
    ignore (Str_intern.intern t ("v" ^ string_of_int i))
  done;
  check "full, not reset"
    true
    (Str_intern.stats t = { Intern.hits = 0; misses = 65_536; size = 65_536; clears = 0 });
  check "held before the reset" true (Str_intern.intern t ("v" ^ "0") == v0);
  ignore (Str_intern.intern t "v65536");
  check "reset counted"
    true
    (Str_intern.stats t = { Intern.hits = 1; misses = 65_537; size = 1; clears = 1 });
  check_str "earlier value intact" "v0" v0;
  let again = "v" ^ "0" in
  check "sharing lost" true (Str_intern.intern t again == again);
  check "reset kept by clear" true
    (Str_intern.clear t;
     (Str_intern.stats t).Intern.clears = 1 && Str_intern.length t = 0)

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
         Alcotest.test_case "collections" `Quick test_asn_collections ]);
      ("ipv4",
       [ Alcotest.test_case "octets" `Quick test_ipv4_octets;
         Alcotest.test_case "strings" `Quick test_ipv4_strings ]);
      ("prefix",
       [ Alcotest.test_case "canonical" `Quick test_prefix_canonical;
         Alcotest.test_case "parse" `Quick test_prefix_parse;
         Alcotest.test_case "mem" `Quick test_prefix_mem;
         Alcotest.test_case "subsumes" `Quick test_prefix_subsumes;
         Alcotest.test_case "split" `Quick test_prefix_split;
         Alcotest.test_case "to_string" `Quick test_prefix_to_string;
         Alcotest.test_case "strict decimal" `Quick test_prefix_strict;
         Alcotest.test_case "sort = comparison sort" `Quick test_prefix_sort ]);
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
      ("int-table",
       [ Alcotest.test_case "sizing, reset and negative keys" `Quick test_tbl_sizing;
         Alcotest.test_case "wrapping chain" `Quick test_tbl_wrap;
         Alcotest.test_case "removed payloads freed" `Quick test_tbl_retention;
         Alcotest.test_case "Fibonacci slot spreads key families" `Quick test_tbl_spread;
         QCheck_alcotest.to_alcotest tbl_model ]);
      ("intern",
       [ Alcotest.test_case "reset at capacity" `Quick test_intern_reset;
         QCheck_alcotest.to_alcotest
           (intern_model "Intern.Make = Hashtbl model"
              (module Str_intern) Str_hash.hash);
         QCheck_alcotest.to_alcotest
           (intern_model "Intern.Make = Hashtbl model (constant hash)"
              (module Const_intern) Const_hash.hash) ]);
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck) ]
