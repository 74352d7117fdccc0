(* The flat longest-prefix-match index behind the Loc-RIB's FIB and the
   data-plane forwarder, at both of its payload types. *)

open Dbgp_types
module Fib = Dbgp_trie.Fib_index
module Forwarder = Dbgp_dataplane.Forwarder

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let ip = Ipv4.of_string

(* ------------------------- flat FIB index ------------------------- *)

let reference_hop table addr =
  List.fold_left
    (fun acc (q, nh) ->
      if not (Prefix.mem addr q) then acc
      else
        match acc with
        | Some (d, _) when Prefix.length d >= Prefix.length q -> acc
        | _ -> Some (q, nh))
    None table
  |> Option.map snd

let test_fib_empty () =
  let ix = Fib.create 0 in
  check_int "empty" 0 (Fib.cardinal ix);
  check "miss" true (Fib.find ix (ip "10.1.2.3") = None);
  check "zero address" true (Fib.find ix Ipv4.any = None)

(* A second [add] of the same prefix replaces its binding in place. *)
let test_replace () =
  let ix = Fib.create 0 in
  let q = Prefix.of_string "10.0.0.0/8" in
  Fib.add ix q (ip "1.1.1.1");
  Fib.add ix q (ip "2.2.2.2");
  check "replaced" true (Fib.find ix (ip "10.1.2.3") = Some (ip "2.2.2.2"));
  check_int "no dup" 1 (Fib.cardinal ix)

(* /32 hosts whose probe chains start at the last slot wrap to slot 0:
   every one must still be found, and an absent key homed there must
   walk the wrapped chain to a miss. *)
let homed_last ix n =
  let last = Fib.capacity ix - 1 in
  let rec go a acc k =
    if k = 0 then List.rev acc
    else
      let q = Prefix.make (Ipv4.of_int a) 32 in
      if Fib.home ix q = last then go (a + 1) (q :: acc) (k - 1)
      else go (a + 1) acc k
  in
  go 0x0A000000 [] n

let test_fib_wrap () =
  let ix = Fib.create 0 in
  let cap = Fib.capacity ix in
  match homed_last ix 5 with
  | absent :: chain ->
    List.iteri (fun i q -> Fib.add ix q (Ipv4.of_int (i + 1))) chain;
    check_int "no growth" cap (Fib.capacity ix);
    List.iteri
      (fun i q ->
        check "wrapped key found" true
          (Fib.find ix (Prefix.network q) = Some (Ipv4.of_int (i + 1))))
      chain;
    check "absent key misses" true (Fib.find ix (Prefix.network absent) = None);
    Fib.add ix (List.hd chain) (ip "9.9.9.9");
    check_int "replace keeps count" 4 (Fib.cardinal ix);
    check "replaced" true
      (Fib.find ix (Prefix.network (List.hd chain)) = Some (ip "9.9.9.9"))
  | [] -> assert false

(* The two properties at one payload type: [payload] turns a generated
   int into a bound value.  A full major collection runs between
   building and probing, so a boxed payload is read after the
   collector has walked it. *)
let fib_qcheck payload =
  let open QCheck in
  (* Networks cluster around a few bases so prefixes nest; lengths hit
     /0 and /32 often. *)
  let gen_prefix =
    Gen.(
      map3
        (fun base off len ->
          Prefix.make (Ipv4.of_int ((base lsl 24) lor off)) len)
        (int_bound 3) (int_bound 0xFFFF)
        (oneof [ oneofl [ 0; 8; 24; 32 ]; int_bound 32 ]))
  in
  let gen_table =
    Gen.(list_size (int_range 0 80) (pair gen_prefix (int_bound 0xFFFF)))
  in
  let probes table =
    Ipv4.any :: Ipv4.of_int 0xFFFFFFFF
    :: List.concat_map
         (fun (q, _) ->
           let n = Ipv4.to_int (Prefix.network q) in
           [ Prefix.network q; Ipv4.of_int (n lor 0xFF); Ipv4.of_int (n lxor 1) ])
         table
  in
  let build table =
    let ix = Fib.create 0 in
    List.iter (fun (q, h) -> Fib.add ix q (payload h)) table;
    Gc.full_major ();
    ix
  in
  (* Later bindings replace earlier ones for the same prefix. *)
  let last_wins table =
    List.fold_left
      (fun m (q, h) -> Prefix.Map.add q (payload h) m)
      Prefix.Map.empty table
    |> Prefix.Map.bindings
  in
  [ Test.make ~name:"find = linear scan for the deepest match" ~count:300
      (make gen_table) (fun table ->
        let ix = build table and ref_table = last_wins table in
        Fib.cardinal ix = List.length ref_table
        && Fib.capacity ix >= 2 * Fib.cardinal ix
        && List.for_all
             (fun a -> Fib.find ix a = reference_hop ref_table a)
             (probes table));
    Test.make ~name:"wrapping probe chains = linear scan" ~count:200
      (make Gen.(pair (int_range 1 7) (list_size (int_range 0 3) (pair gen_prefix nat))))
      (fun (k, extra) ->
        (* Up to seven keys homed at the last slot plus a few others:
           still at most half full, so the chain stays wrapped. *)
        let ix = Fib.create 0 in
        let chain =
          List.map (fun q -> (q, Ipv4.to_int (Prefix.network q))) (homed_last ix k)
        in
        let table = chain @ List.filteri (fun i _ -> i + k < 8) extra in
        List.iter (fun (q, h) -> Fib.add ix q (payload h)) table;
        Gc.full_major ();
        Fib.capacity ix = 16
        && List.for_all
             (fun a -> Fib.find ix a = reference_hop (last_wins table) a)
             (probes table)) ]

(* The forwarder's ports: boxed [To_as] beside the immediate [Local]. *)
let port h = if h mod 5 = 0 then Forwarder.Local else Forwarder.To_as (Asn.of_int h)

let () =
  Alcotest.run "trie"
    [ ("basics", [ Alcotest.test_case "replace" `Quick test_replace ]);
      ( "fib index",
        [ Alcotest.test_case "empty" `Quick test_fib_empty;
          Alcotest.test_case "wrapping chain" `Quick test_fib_wrap ]
        @ List.map QCheck_alcotest.to_alcotest (fib_qcheck Ipv4.of_int) );
      ( "port payload",
        List.map QCheck_alcotest.to_alcotest (fib_qcheck port) ) ]
