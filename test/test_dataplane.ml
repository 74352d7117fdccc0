open Dbgp_types
open Dbgp_dataplane

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let asn = Asn.of_int
let ip = Ipv4.of_string
let pfx = Prefix.of_string

let ipv4_hdr dst = Header.Ipv4_hdr { src = ip "10.0.0.1"; dst = ip dst }

(* ------------------------- headers / packets ------------------------- *)

let test_header_sizes () =
  check_int "ipv4" 20 (Header.wire_size (ipv4_hdr "1.2.3.4"));
  check_int "scion" (8 + 8) (Header.wire_size (Header.Scion_hdr { path = [ "a"; "b" ]; pos = 0 }));
  check_int "pathlet" (4 + 12) (Header.wire_size (Header.Pathlet_hdr { fids = [ 1; 2; 3 ] }));
  check_int "tunnel" 20 (Header.wire_size (Header.Tunnel_hdr { endpoint = ip "1.1.1.1" }));
  check_int "stack" 40
    (Header.stack_size [ Header.Tunnel_hdr { endpoint = ip "1.1.1.1" }; ipv4_hdr "2.2.2.2" ])

let test_packet_validation () =
  Alcotest.check_raises "empty stack" (Invalid_argument "Packet.make: empty header stack")
    (fun () -> ignore (Packet.make ~headers:[] ~payload:"" ()));
  Alcotest.check_raises "bad ttl" (Invalid_argument "Packet.make: TTL must be positive")
    (fun () -> ignore (Packet.make ~ttl:0 ~headers:[ ipv4_hdr "1.1.1.1" ] ~payload:"" ()));
  let p = Packet.make ~ttl:2 ~headers:[ ipv4_hdr "1.1.1.1" ] ~payload:"xy" () in
  check_int "size" 22 (Packet.size p);
  ( match Packet.decrement_ttl p with
    | Some p' -> check_int "decremented" 1 p'.Packet.ttl
    | None -> Alcotest.fail "should survive" );
  match Packet.decrement_ttl { p with Packet.ttl = 1 } with
  | None -> ()
  | Some _ -> Alcotest.fail "should expire"

(* ------------------------- forwarder ------------------------- *)

let test_forwarder_tables () =
  let f = Forwarder.create ~me:(asn 1) () in
  Forwarder.set_ip_route f (pfx "10.0.0.0/8") (Forwarder.To_as (asn 2));
  Forwarder.set_ip_route f (pfx "10.1.0.0/16") Forwarder.Local;
  check "lpm specific" true (Forwarder.ip_lookup f (ip "10.1.2.3") = Some Forwarder.Local);
  check "lpm general" true (Forwarder.ip_lookup f (ip "10.2.0.1") = Some (Forwarder.To_as (asn 2)));
  check "miss" true (Forwarder.ip_lookup f (ip "11.0.0.1") = None);
  Forwarder.add_local_addr f (ip "10.1.0.1");
  check "local addr" true (Forwarder.is_local_addr f (ip "10.1.0.1"));
  check "not local" false (Forwarder.is_local_addr f (ip "10.1.0.2"));
  Forwarder.set_pathlet_hop f ~fid:7 (Forwarder.To_as (asn 3)) ~consume:true;
  check "pathlet" true (Forwarder.pathlet_lookup f ~fid:7 = Some (Forwarder.To_as (asn 3), true));
  Forwarder.claim_router f ~router:"r1";
  check "owns" true (Forwarder.owns_router f ~router:"r1");
  check "not owns" false (Forwarder.owns_router f ~router:"r2")

(* ------------------------- engine: ipv4 ------------------------- *)

(* Chain 1 -> 2 -> 3 where 3 hosts 99.0.0.0/24. *)
let ip_chain_forwarders () =
  let e = Engine.create () in
  let f1 = Forwarder.create ~me:(asn 1) () in
  let f2 = Forwarder.create ~me:(asn 2) () in
  let f3 = Forwarder.create ~me:(asn 3) () in
  Forwarder.set_ip_route f1 (pfx "99.0.0.0/24") (Forwarder.To_as (asn 2));
  Forwarder.set_ip_route f2 (pfx "99.0.0.0/24") (Forwarder.To_as (asn 3));
  Forwarder.set_ip_route f3 (pfx "99.0.0.0/24") Forwarder.Local;
  List.iter (Engine.add e) [ f1; f2; f3 ];
  (e, f1, f2)

let ip_chain () =
  let e, _, _ = ip_chain_forwarders () in
  e

let test_engine_ipv4_delivery () =
  let e = ip_chain () in
  let p = Packet.make ~headers:[ ipv4_hdr "99.0.0.7" ] ~payload:"d" () in
  match Engine.route e ~from:(asn 1) p with
  | Engine.Delivered { at; path } ->
    check "at 3" true (Asn.equal at (asn 3));
    check "path recorded" true (List.map Asn.to_int path = [ 1; 2; 3 ])
  | Engine.Dropped _ -> Alcotest.fail "should deliver"

let test_engine_no_route_drop () =
  let e = ip_chain () in
  let p = Packet.make ~headers:[ ipv4_hdr "88.0.0.1" ] ~payload:"" () in
  match Engine.route e ~from:(asn 1) p with
  | Engine.Dropped { at; reason } ->
    check "dropped at 1" true (Asn.equal at (asn 1));
    check "reason" true (reason = "no IPv4 route")
  | Engine.Delivered _ -> Alcotest.fail "should drop"

let test_engine_ttl_loop () =
  (* 1 <-> 2 routing loop must be cut by TTL. *)
  let e = Engine.create () in
  let f1 = Forwarder.create ~me:(asn 1) () in
  let f2 = Forwarder.create ~me:(asn 2) () in
  Forwarder.set_ip_route f1 (pfx "99.0.0.0/24") (Forwarder.To_as (asn 2));
  Forwarder.set_ip_route f2 (pfx "99.0.0.0/24") (Forwarder.To_as (asn 1));
  Engine.add e f1;
  Engine.add e f2;
  let p = Packet.make ~ttl:8 ~headers:[ ipv4_hdr "99.0.0.1" ] ~payload:"" () in
  match Engine.route e ~from:(asn 1) p with
  | Engine.Dropped { reason; _ } -> check "ttl" true (reason = "TTL expired")
  | Engine.Delivered _ -> Alcotest.fail "loop must drop"

(* ------------------------- engine: tunnels ------------------------- *)

let test_engine_tunnel_decap () =
  let e, f1, f2 = ip_chain_forwarders () in
  Forwarder.add_local_addr f2 (ip "2.2.2.2");
  (* route toward the endpoint *)
  Forwarder.set_ip_route f1 (pfx "2.2.2.2/32") (Forwarder.To_as (asn 2));
  let p =
    Packet.make
      ~headers:[ Header.Tunnel_hdr { endpoint = ip "2.2.2.2" }; ipv4_hdr "99.0.0.7" ]
      ~payload:"d" ()
  in
  match Engine.route e ~from:(asn 1) p with
  | Engine.Delivered { at; path } ->
    check "delivered at 3 after decap at 2" true (Asn.equal at (asn 3));
    check "traveled via 2" true (List.exists (Asn.equal (asn 2)) path)
  | Engine.Dropped { reason; _ } -> Alcotest.fail ("dropped: " ^ reason)

let test_engine_tunnel_unroutable () =
  let e = ip_chain () in
  let p =
    Packet.make
      ~headers:[ Header.Tunnel_hdr { endpoint = ip "7.7.7.7" }; ipv4_hdr "99.0.0.7" ]
      ~payload:"" ()
  in
  match Engine.route e ~from:(asn 1) p with
  | Engine.Dropped { reason; _ } -> check "reason" true (reason = "no route to tunnel endpoint")
  | Engine.Delivered _ -> Alcotest.fail "should drop"

(* ------------------------- engine: pathlets ------------------------- *)

let test_engine_pathlet_forwarding () =
  (* FIDs: at 1, fid 10 -> AS 2 (consume); at 2, fid 11 -> AS 3 (consume);
     at 3, empty fid list + inner ipv4 local delivery. *)
  let e = Engine.create () in
  let f1 = Forwarder.create ~me:(asn 1) () in
  let f2 = Forwarder.create ~me:(asn 2) () in
  let f3 = Forwarder.create ~me:(asn 3) () in
  Forwarder.set_pathlet_hop f1 ~fid:10 (Forwarder.To_as (asn 2)) ~consume:true;
  Forwarder.set_pathlet_hop f2 ~fid:11 (Forwarder.To_as (asn 3)) ~consume:true;
  Forwarder.set_ip_route f3 (pfx "99.0.0.0/24") Forwarder.Local;
  List.iter (Engine.add e) [ f1; f2; f3 ];
  let p =
    Packet.make
      ~headers:[ Header.Pathlet_hdr { fids = [ 10; 11 ] }; ipv4_hdr "99.0.0.7" ]
      ~payload:"" ()
  in
  ( match Engine.route e ~from:(asn 1) p with
    | Engine.Delivered { at; path } ->
      check "delivered at 3" true (Asn.equal at (asn 3));
      check "exact fid path" true (List.map Asn.to_int path = [ 1; 2; 3 ])
    | Engine.Dropped { reason; _ } -> Alcotest.fail ("dropped: " ^ reason) );
  (* unknown FID drops *)
  let bad =
    Packet.make ~headers:[ Header.Pathlet_hdr { fids = [ 99 ] }; ipv4_hdr "99.0.0.7" ]
      ~payload:"" ()
  in
  match Engine.route e ~from:(asn 1) bad with
  | Engine.Dropped { reason; _ } -> check "unknown fid" true (reason = "unknown FID 99")
  | Engine.Delivered _ -> Alcotest.fail "should drop"

let test_engine_pathlet_multihop_fid () =
  (* A non-consuming hop: fid 10 spans two ASes (1 -> 2 -> 3). *)
  let e = Engine.create () in
  let f1 = Forwarder.create ~me:(asn 1) () in
  let f2 = Forwarder.create ~me:(asn 2) () in
  let f3 = Forwarder.create ~me:(asn 3) () in
  Forwarder.set_pathlet_hop f1 ~fid:10 (Forwarder.To_as (asn 2)) ~consume:false;
  Forwarder.set_pathlet_hop f2 ~fid:10 (Forwarder.To_as (asn 3)) ~consume:true;
  Forwarder.set_ip_route f3 (pfx "99.0.0.0/24") Forwarder.Local;
  List.iter (Engine.add e) [ f1; f2; f3 ];
  let p =
    Packet.make ~headers:[ Header.Pathlet_hdr { fids = [ 10 ] }; ipv4_hdr "99.0.0.7" ]
      ~payload:"" ()
  in
  match Engine.route e ~from:(asn 1) p with
  | Engine.Delivered { at; _ } -> check "two-hop fid" true (Asn.equal at (asn 3))
  | Engine.Dropped { reason; _ } -> Alcotest.fail ("dropped: " ^ reason)

(* ------------------------- engine: scion ------------------------- *)

let test_engine_scion_forwarding () =
  let e = Engine.create () in
  let f1 = Forwarder.create ~me:(asn 1) () in
  let f2 = Forwarder.create ~me:(asn 2) () in
  let f3 = Forwarder.create ~me:(asn 3) () in
  Forwarder.claim_router f1 ~router:"r1";
  Forwarder.set_router_port f1 ~router:"r2" (Forwarder.To_as (asn 2));
  Forwarder.claim_router f2 ~router:"r2";
  Forwarder.set_router_port f2 ~router:"r3" (Forwarder.To_as (asn 3));
  Forwarder.claim_router f3 ~router:"r3";
  Forwarder.set_ip_route f3 (pfx "99.0.0.0/24") Forwarder.Local;
  List.iter (Engine.add e) [ f1; f2; f3 ];
  let p =
    Packet.make
      ~headers:
        [ Header.Scion_hdr { path = [ "r1"; "r2"; "r3" ]; pos = 0 };
          ipv4_hdr "99.0.0.7" ]
      ~payload:"" ()
  in
  ( match Engine.route e ~from:(asn 1) p with
    | Engine.Delivered { at; path } ->
      check "delivered" true (Asn.equal at (asn 3));
      check "followed path" true (List.map Asn.to_int path = [ 1; 2; 3 ])
    | Engine.Dropped { reason; _ } -> Alcotest.fail ("dropped: " ^ reason) );
  let bad =
    Packet.make
      ~headers:[ Header.Scion_hdr { path = [ "r1"; "rX" ]; pos = 0 }; ipv4_hdr "99.0.0.7" ]
      ~payload:"" ()
  in
  match Engine.route e ~from:(asn 1) bad with
  | Engine.Dropped { reason; _ } -> check "unknown router" true (reason = "no port for router rX")
  | Engine.Delivered _ -> Alcotest.fail "should drop"

let test_engine_unknown_as () =
  let e = ip_chain () in
  let p = Packet.make ~headers:[ ipv4_hdr "99.0.0.1" ] ~payload:"" () in
  check "unknown origin raises" true
    (try ignore (Engine.route e ~from:(asn 42) p); false with Not_found -> true)

let () =
  Alcotest.run "dataplane"
    [ ("headers",
       [ Alcotest.test_case "sizes" `Quick test_header_sizes;
         Alcotest.test_case "packet validation" `Quick test_packet_validation ]);
      ("forwarder", [ Alcotest.test_case "tables" `Quick test_forwarder_tables ]);
      ("ipv4",
       [ Alcotest.test_case "delivery" `Quick test_engine_ipv4_delivery;
         Alcotest.test_case "no route" `Quick test_engine_no_route_drop;
         Alcotest.test_case "ttl loop" `Quick test_engine_ttl_loop ]);
      ("tunnel",
       [ Alcotest.test_case "decap" `Quick test_engine_tunnel_decap;
         Alcotest.test_case "unroutable" `Quick test_engine_tunnel_unroutable ]);
      ("pathlet",
       [ Alcotest.test_case "fid forwarding" `Quick test_engine_pathlet_forwarding;
         Alcotest.test_case "multi-hop fid" `Quick test_engine_pathlet_multihop_fid ]);
      ("scion", [ Alcotest.test_case "path forwarding" `Quick test_engine_scion_forwarding ]);
      ("errors", [ Alcotest.test_case "unknown AS" `Quick test_engine_unknown_as ]) ]
