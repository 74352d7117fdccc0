(* Tests for the extension protocols (R-BGP, LISP, HLP), legacy BGP-4
   interop, and the multi-network-protocol header builder. *)

open Dbgp_types
module Ia = Dbgp_core.Ia
module Value = Dbgp_core.Value
module Dm = Dbgp_core.Decision_module
module Peer = Dbgp_core.Peer
module Speaker = Dbgp_core.Speaker
module Legacy = Dbgp_core.Legacy
module Rbgp = Dbgp_protocols.Rbgp
module Lisp = Dbgp_protocols.Lisp_like
module Hlp = Dbgp_protocols.Hlp_like
module Hb = Dbgp_protocols.Header_builder
module Scion = Dbgp_protocols.Scion_like
module Pathlet = Dbgp_protocols.Pathlet
module Portal_io = Dbgp_protocols.Portal_io
module Ls = Dbgp_topology.Link_state

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let asn = Asn.of_int
let ip = Ipv4.of_string
let pfx = Prefix.of_string
let peer n = Peer.make ~asn:(asn n) ~addr:(Ipv4.of_octets 10 0 0 n)

let base_ia () =
  Ia.originate ~prefix:(pfx "99.0.0.0/24") ~origin_asn:(asn 1) ~next_hop:(ip "10.0.0.1") ()

let cand ?(peer_n = 2) ia = { Dm.from_peer = Some (peer peer_n); ia }

(* ------------------------- R-BGP ------------------------- *)

let test_rbgp_backup_roundtrip () =
  let path = [ Path_elem.As (asn 7); Path_elem.Island (Island_id.named "X");
               Path_elem.as_set [ asn 8; asn 9 ] ] in
  let ia = Rbgp.set_backup path (base_ia ()) in
  check "roundtrip" true (Rbgp.backup_of ia = Some path);
  check "absent" true (Rbgp.backup_of (base_ia ()) = None)

let test_rbgp_most_disjoint () =
  let mk peer_n hops = cand ~peer_n (List.fold_left (fun ia n -> Ia.prepend_as (asn n) ia) (base_ia ()) hops) in
  let primary = [ Path_elem.As (asn 5); Path_elem.As (asn 1) ] in
  let shares = mk 2 [ 5 ] in            (* shares AS 5 with primary *)
  let disjoint = mk 3 [ 7; 8 ] in       (* longer but disjoint *)
  check "disjoint preferred" true
    (Rbgp.most_disjoint ~primary [ shares; disjoint ] = Some disjoint);
  check "empty" true (Rbgp.most_disjoint ~primary [] = None)

let test_rbgp_module_attaches_backup () =
  let m = Rbgp.decision_module () in
  let best = cand ~peer_n:2 (Ia.prepend_as (asn 6) (base_ia ())) in
  let alt = cand ~peer_n:3 (Ia.prepend_as (asn 8) (Ia.prepend_as (asn 7) (base_ia ()))) in
  ( match m.Dm.select ~prefix:(pfx "99.0.0.0/24") [ best; alt ] with
    | Some chosen -> check "bgp rules: shortest wins" true (chosen == best)
    | None -> Alcotest.fail "selection failed" );
  let out = m.Dm.contribute ~me:(asn 10) best.Dm.ia in
  ( match Rbgp.failover out with
    | Some backup ->
      check "backup starts with me" true
        (List.hd backup = Path_elem.As (asn 10));
      check "backup is the runner-up" true
        (List.exists (Path_elem.mentions_asn (asn 7)) backup)
    | None -> Alcotest.fail "no backup attached" );
  (* single candidate: no backup to offer *)
  ignore (m.Dm.select ~prefix:(pfx "98.0.0.0/24") [ best ]);
  let lone = m.Dm.contribute ~me:(asn 10) { best.Dm.ia with Ia.prefix = pfx "98.0.0.0/24" } in
  check "no runner-up, no backup" true (Rbgp.failover lone = None)

(* The outgoing IA depends on the losers too: R-BGP's backup is the
   runner-up's path.  When only the runner-up changes, the winner stays
   but the backup must follow, and the new outgoing IA must be
   re-advertised. *)
let test_rbgp_loser_change_readvertised () =
  let prefix = pfx "99.0.0.0/24" in
  let s = Speaker.create (Speaker.config ~asn:(asn 10) ~addr:(ip "10.0.0.10") ()) in
  List.iter
    (fun n ->
      Speaker.add_neighbor s
        (Speaker.neighbor ~relationship:Dbgp_bgp.Policy.To_customer (peer n)))
    [ 2; 3; 4 ];
  Speaker.add_module s (Rbgp.decision_module ());
  Speaker.set_active s prefix Rbgp.protocol;
  let via hops = List.fold_left (fun ia n -> Ia.prepend_as (asn n) ia) (base_ia ()) hops in
  let backup_mentions n ia =
    match Rbgp.failover ia with
    | Some backup -> List.exists (Path_elem.mentions_asn (asn n)) backup
    | None -> false
  in
  Speaker.ingest s ~from:(peer 2) (Speaker.Announce (via [ 2 ]));
  Speaker.ingest s ~from:(peer 3) (Speaker.Announce (via [ 7; 3 ]));
  ignore (Speaker.flush s);
  let winner () =
    match Speaker.best s prefix with
    | Some c -> c
    | None -> Alcotest.fail "no route selected"
  in
  check "short path wins" true
    (Option.map (fun p -> Peer.equal p (peer 2)) (winner ()).Speaker.candidate.Dm.from_peer
    = Some true);
  check "backup is the runner-up via AS 7" true (backup_mentions 7 (winner ()).Speaker.outgoing);
  (* Only the runner-up changes: AS 3 now routes via AS 8. *)
  let out = Speaker.receive s ~from:(peer 3) (Speaker.Announce (via [ 8; 3 ])) in
  check "winner kept" true
    (Option.map (fun p -> Peer.equal p (peer 2)) (winner ()).Speaker.candidate.Dm.from_peer
    = Some true);
  check "backup follows the runner-up" true
    (backup_mentions 8 (winner ()).Speaker.outgoing
    && not (backup_mentions 7 (winner ()).Speaker.outgoing));
  check "re-advertised with the new backup" true
    (List.exists
       (fun (p, m) ->
         Peer.equal p (peer 4)
         && match m with Speaker.Announce ia -> backup_mentions 8 ia | _ -> false)
       out)

(* ------------------------- LISP ------------------------- *)

let test_lisp_mobility () =
  let io, _ = Portal_io.in_memory () in
  let map_server = ip "172.16.7.7" in
  let l = Lisp.create { Lisp.my_island = Island_id.named "L"; map_server; io } in
  let eid = pfx "240.1.0.0/16" in
  check "unresolved before registration" true
    (Lisp.resolve ~io ~map_server ~eid = None);
  Lisp.register l ~eid ~rloc:(ip "10.1.1.1");
  check "resolves" true (Lisp.resolve ~io ~map_server ~eid = Some (ip "10.1.1.1"));
  (* the mobility event: same EID, new locator *)
  Lisp.register l ~eid ~rloc:(ip "10.2.2.2");
  check "moved" true (Lisp.resolve ~io ~map_server ~eid = Some (ip "10.2.2.2"));
  let ia = Lisp.advertise l (base_ia ()) in
  check "map server advertised in the IA" true
    (Ia.find_island_descriptor ~island:(Island_id.named "L") ~proto:Lisp.protocol
       ~field:"lisp-map-server" ia
    = Some (Value.Addr map_server))

(* ------------------------- link state ------------------------- *)

let test_link_state_lsa_validation () =
  Alcotest.check_raises "bad weight"
    (Invalid_argument "Link_state.lsa: weight must be positive") (fun () ->
      ignore (Ls.lsa ~router:"a" ~seq:1 [ ("b", 0) ]));
  Alcotest.check_raises "self link" (Invalid_argument "Link_state.lsa: self-link")
    (fun () -> ignore (Ls.lsa ~router:"a" ~seq:1 [ ("a", 1) ]))

let test_link_state_flooding_seq () =
  let db = Ls.create () in
  check "install" true (Ls.install db (Ls.lsa ~router:"a" ~seq:2 [ ("b", 1) ]) = `Installed);
  check "stale rejected" true (Ls.install db (Ls.lsa ~router:"a" ~seq:1 [ ("b", 9) ]) = `Stale);
  check "same seq stale" true (Ls.install db (Ls.lsa ~router:"a" ~seq:2 [] ) = `Stale);
  check "newer replaces" true (Ls.install db (Ls.lsa ~router:"a" ~seq:3 [ ("c", 1) ]) = `Installed)

let square_db () =
  (* a - b
     |   |     weights: a-b=1, b-d=1, a-c=5, c-d=1 : shortest a->d = a,b,d (2)
     c - d *)
  let db = Ls.create () in
  List.iter
    (fun l -> ignore (Ls.install db l))
    [ Ls.lsa ~router:"a" ~seq:1 [ ("b", 1); ("c", 5) ];
      Ls.lsa ~router:"b" ~seq:1 [ ("a", 1); ("d", 1) ];
      Ls.lsa ~router:"c" ~seq:1 [ ("a", 5); ("d", 1) ];
      Ls.lsa ~router:"d" ~seq:1 [ ("b", 1); ("c", 1) ] ];
  db

let test_link_state_dijkstra () =
  let db = square_db () in
  ( match Ls.shortest_path db ~src:"a" ~dst:"d" with
    | Some (path, cost) ->
      check "route" true (path = [ "a"; "b"; "d" ]);
      check_int "cost" 2 cost
    | None -> Alcotest.fail "reachable" );
  check "self" true (Ls.shortest_path db ~src:"a" ~dst:"a" = Some ([ "a" ], 0));
  check "unknown src" true (Ls.shortest_path db ~src:"zz" ~dst:"a" = None);
  check "unknown dst" true (Ls.distance db ~src:"a" ~dst:"zz" = None)

let test_link_state_two_way_check () =
  let db = Ls.create () in
  (* a advertises a link to b, but b does not advertise back. *)
  ignore (Ls.install db (Ls.lsa ~router:"a" ~seq:1 [ ("b", 1) ]));
  ignore (Ls.install db (Ls.lsa ~router:"b" ~seq:1 []));
  check "one-way link unusable" true (Ls.distance db ~src:"a" ~dst:"b" = None);
  ignore (Ls.install db (Ls.lsa ~router:"b" ~seq:2 [ ("a", 1) ]));
  check "two-way usable" true (Ls.distance db ~src:"a" ~dst:"b" = Some 1)

(* ------------------------- HLP ------------------------- *)

let hlp_cfg ?(peering_cost = 1) db =
  { Hlp.my_island = Island_id.named "H"; lsdb = db; ingress = "a"; egress = "d";
    peering_cost }

let test_hlp_cost_accumulation () =
  let m = Hlp.decision_module (hlp_cfg (square_db ())) in
  let ia1 = m.Dm.contribute ~me:(asn 2) (base_ia ()) in
  (* interior a->d = 2 plus peering 1 *)
  check "first island cost" true (Hlp.cost_of ia1 = Some 3);
  let ia2 = m.Dm.contribute ~me:(asn 3) ia1 in
  check "accumulates" true (Hlp.cost_of ia2 = Some 6)

let test_hlp_select_cheapest () =
  let m = Hlp.decision_module (hlp_cfg (square_db ())) in
  let with_cost c ia =
    Ia.set_path_descriptor ~owners:[ Hlp.protocol ] ~field:Hlp.field_cost (Value.Int c) ia
  in
  let cheap = cand ~peer_n:3 (with_cost 2 (Ia.prepend_as (asn 9) (base_ia ()))) in
  let costly = cand ~peer_n:2 (with_cost 20 (base_ia ())) in
  check "cheapest wins despite longer path" true
    (m.Dm.select ~prefix:(pfx "99.0.0.0/24") [ costly; cheap ] = Some cheap)

let test_hlp_partition_blocks_export () =
  let db = Ls.create () in
  ignore (Ls.install db (Ls.lsa ~router:"a" ~seq:1 []));
  ignore (Ls.install db (Ls.lsa ~router:"d" ~seq:1 []));
  let m = Hlp.decision_module (hlp_cfg db) in
  check "partitioned island exports nothing" true
    (m.Dm.export_filter (base_ia ()) = None)

(* ------------------------- legacy BGP-4 interop ------------------------- *)

let fancy_ia () =
  base_ia ()
  |> Ia.prepend_as (asn 2)
  |> Ia.declare_membership ~island:(Island_id.named "W") ~members:[ asn 2 ]
  |> Ia.set_path_descriptor ~owners:[ Protocol_id.wiser ] ~field:"wiser-cost" (Value.Int 42)
  |> Ia.add_island_descriptor ~island:(Island_id.named "W") ~proto:Protocol_id.wiser
       ~field:"wiser-portal" (Value.Addr (ip "172.16.0.1"))

let test_legacy_roundtrip () =
  let roundtrips ia =
    match Legacy.of_update (Legacy.to_update ia) with
    | Some ia' -> Ia.equal ia ia'
    | None -> false
  in
  check "plain roundtrips" true (roundtrips (base_ia ()));
  check "rich roundtrips" true (roundtrips (fancy_ia ()));
  let with_island = Ia.prepend_island (Island_id.named "Z") (fancy_ia ()) in
  check "island PV entries survive via extras" true (roundtrips with_island)

let test_legacy_as_path_projection () =
  let u = Legacy.to_update (fancy_ia ()) in
  match u.Dbgp_bgp.Message.attrs with
  | Some attrs ->
    check "legacy AS_PATH carries the ASNs" true
      (Dbgp_bgp.Attr.as_path_asns attrs.Dbgp_bgp.Attr.as_path = [ asn 2; asn 1 ]);
    check "extras attribute present and transitive" true
      (List.exists
         (fun (x : Dbgp_bgp.Attr.unknown) ->
           x.Dbgp_bgp.Attr.type_code = Legacy.attr_type_code && x.Dbgp_bgp.Attr.transitive)
         attrs.Dbgp_bgp.Attr.unknowns)
  | None -> Alcotest.fail "update must carry attributes"

let test_legacy_scrubbed_degrades () =
  let u = Legacy.to_update (fancy_ia ()) in
  let scrubbed =
    match u.Dbgp_bgp.Message.attrs with
    | Some attrs ->
      { u with
        Dbgp_bgp.Message.attrs =
          Some { attrs with Dbgp_bgp.Attr.unknowns = [] } }
    | None -> u
  in
  match Legacy.of_update scrubbed with
  | Some ia ->
    check "wiser info lost" true
      (Ia.find_path_descriptor ~proto:Protocol_id.wiser ~field:"wiser-cost" ia = None);
    check "baseline path kept" true (Ia.asns_on_path ia = [ asn 2; asn 1 ]);
    check "next hop kept" true (Ia.next_hop ia <> None)
  | None -> Alcotest.fail "plain BGP decode must still work"

let test_legacy_wire_roundtrip () =
  (* through the full Message codec, as a real legacy session would *)
  let u = Legacy.to_update (fancy_ia ()) in
  let wire = Dbgp_bgp.Message.encode (Dbgp_bgp.Message.Update u) in
  match Dbgp_bgp.Message.decode wire with
  | Dbgp_bgp.Message.Update u' ->
    check "IA survives the wire" true
      ( match Legacy.of_update u' with
        | Some ia -> Ia.equal ia (fancy_ia ())
        | None -> false )
  | _ -> Alcotest.fail "expected update"

let test_legacy_withdraw_only () =
  check "withdraw-only is None" true
    (Legacy.of_update
       { Dbgp_bgp.Message.withdrawn = [ pfx "1.0.0.0/8" ]; attrs = None; nlri = [] }
    = None)

let test_legacy_two_byte_as_trans () =
  (* A 4-byte ASN on the path: the 2-byte AS_PATH shows AS_TRANS, the
     extras attribute preserves the truth. *)
  let big = asn 4_200_000_001 in
  let ia = base_ia () |> Ia.prepend_as big |> Ia.prepend_as (asn 7) in
  let u = Legacy.to_update_two_byte ia in
  ( match u.Dbgp_bgp.Message.attrs with
    | Some attrs ->
      let path = Dbgp_bgp.Attr.as_path_asns attrs.Dbgp_bgp.Attr.as_path in
      check "big ASN replaced by AS_TRANS" true
        (path = [ asn 7; asn 23456; asn 1 ]);
      check "small ASNs untouched" true (List.mem (asn 7) path)
    | None -> Alcotest.fail "attrs expected" );
  (* The true path comes back from the extras attribute. *)
  let true_path u = Option.map Ia.asns_on_path (Legacy.of_update u) in
  check "true path reconstructable" true
    (true_path u = Some [ asn 7; big; asn 1 ]);
  (* all-small paths are unchanged by the translation *)
  let small_u = Legacy.to_update_two_byte (base_ia ()) in
  check "no gratuitous substitution" true (true_path small_u = Some [ asn 1 ])

(* ------------------------- header builder ------------------------- *)

let multi_island_ia () =
  let isl_s = Island_id.named "S" and isl_p = Island_id.named "P" in
  base_ia ()
  |> Ia.prepend_as (asn 2)
  |> Ia.declare_membership ~island:isl_p ~members:[ asn 2 ]
  |> Ia.prepend_island isl_s
  |> Scion.attach ~island:isl_s [ [ "s1"; "s2" ] ]
  |> Pathlet.attach ~island:isl_p
       [ Pathlet.make ~fid:4 [ Pathlet.Router "p1"; Pathlet.Deliver (pfx "99.0.0.0/24") ] ]

let test_header_builder_plan () =
  let ia = multi_island_ia () in
  let ingress_of i =
    if Island_id.equal i (Island_id.named "P") then Some (ip "10.9.0.2") else None
  in
  let module H = Dbgp_dataplane.Header in
  match Hb.build ~ia ~src:(ip "10.0.0.99") ~dst:(ip "99.0.0.1") ~ingress_of with
  | [ first; tunnel; pathlet; _ ] ->
    (* The nearest island, S, needs no tunnel. *)
    check "scion header chosen first" true
      (match first with H.Scion_hdr { path; _ } -> path = [ "s1"; "s2" ] | _ -> false);
    check "P tunneled across the gulf" true
      (match tunnel with H.Tunnel_hdr { endpoint } -> Ipv4.equal endpoint (ip "10.9.0.2") | _ -> false);
    check "pathlet header for P" true
      (match pathlet with H.Pathlet_hdr { fids } -> fids = [ 4 ] | _ -> false)
  | _ -> Alcotest.fail "expected scion, tunnel, pathlet and ipv4 headers"

let test_header_builder_stack () =
  let ia = multi_island_ia () in
  let ingress_of i =
    if Island_id.equal i (Island_id.named "P") then Some (ip "10.9.0.2") else None
  in
  let stack = Hb.build ~ia ~src:(ip "10.0.0.99") ~dst:(ip "99.0.0.1") ~ingress_of in
  (* scion (no tunnel), tunnel to P, pathlet, inner ipv4 *)
  check_int "four headers" 4 (List.length stack);
  ( match List.rev stack with
    | Dbgp_dataplane.Header.Ipv4_hdr { dst; _ } :: _ ->
      check "innermost is ipv4 to dest" true (Ipv4.equal dst (ip "99.0.0.1"))
    | _ -> Alcotest.fail "innermost must be ipv4" );
  (* plain-BGP IA: just ipv4 *)
  let plain = Hb.build ~ia:(base_ia ()) ~src:(ip "1.1.1.1") ~dst:(ip "99.0.0.1")
      ~ingress_of:(fun _ -> None) in
  check_int "plain ia means plain ipv4" 1 (List.length plain)

let test_header_builder_unreachable_pathlets () =
  (* pathlets that do not reach the destination prefix produce no header *)
  let isl = Island_id.named "P" in
  let ia =
    base_ia ()
    |> Ia.prepend_island isl
    |> Pathlet.attach ~island:isl
         [ Pathlet.make ~fid:4 [ Pathlet.Router "p1"; Pathlet.Deliver (pfx "55.0.0.0/8") ] ]
  in
  match Hb.build ~ia ~src:(ip "1.1.1.1") ~dst:(ip "99.0.0.1") ~ingress_of:(fun _ -> None) with
  | [ Dbgp_dataplane.Header.Ipv4_hdr _ ] -> ()
  | _ -> Alcotest.fail "no header for useless pathlets"

(* ------------------------- Arrow ------------------------- *)

module Arrow = Dbgp_protocols.Arrow
module Ron = Dbgp_protocols.Ron

let arrow_inst ?(guarantee = 500) () =
  Arrow.create
    { Arrow.my_island = Island_id.named "AR";
      portal = ip "172.16.9.1";
      guarantee;
      segment = { Arrow.ingress = ip "172.16.9.2"; egress = ip "172.16.9.3"; bandwidth = guarantee } }

let test_arrow_advertise_discover () =
  let a = arrow_inst () in
  let ia = Arrow.advertise a (base_ia ()) in
  match Arrow.discover ia with
  | [ d ] ->
    check "portal" true (Ipv4.equal d.Arrow.portal_addr (ip "172.16.9.1"));
    check_int "guarantee" 500 d.Arrow.guarantee
  | _ -> Alcotest.fail "expected one arrow service"

let test_arrow_buy_and_stitch () =
  let a = arrow_inst () in
  let io, register = Portal_io.in_memory () in
  register ~portal:(ip "172.16.9.1") ~service:Arrow.service (Arrow.serve a);
  ( match Arrow.buy ~io ~portal:(ip "172.16.9.1") ~min_bandwidth:400 with
    | Some seg ->
      check "segment bw" true (seg.Arrow.bandwidth = 500);
      check_int "one sold" 1 (Arrow.sold a)
    | None -> Alcotest.fail "purchase should succeed" );
  check "demand above guarantee refused" true
    (Arrow.buy ~io ~portal:(ip "172.16.9.1") ~min_bandwidth:600 = None)

(* ------------------------- RON ------------------------- *)

let test_ron_detour () =
  let r = Ron.create () in
  let a = ip "10.0.0.1" and b = ip "10.0.0.2" and relay = ip "10.0.0.3" in
  check "nothing probed" true (Ron.best_route r ~src:a ~dst:b = None);
  Ron.observe r a b ~latency_ms:100.;
  check "direct only" true (Ron.best_route r ~src:a ~dst:b = Some (Ron.Direct 100.));
  Ron.observe r a relay ~latency_ms:20.;
  Ron.observe r relay b ~latency_ms:30.;
  ( match Ron.best_route r ~src:a ~dst:b with
    | Some (Ron.Via (v, total)) ->
      check "detour relay" true (Ipv4.equal v relay);
      check "detour total" true (abs_float (total -. 50.) < 1e-9)
    | _ -> Alcotest.fail "detour should win" );
  (* detour worse than direct: stays direct *)
  Ron.observe r relay b ~latency_ms:300.;
  check "direct wins again" true (Ron.best_route r ~src:a ~dst:b = Some (Ron.Direct 100.));
  Alcotest.check_raises "negative latency" (Invalid_argument "Ron.observe: negative latency")
    (fun () -> Ron.observe r a b ~latency_ms:(-1.))

let test_ron_headers_and_discovery () =
  let r = Ron.create () in
  let a = ip "10.0.0.1" and b = ip "10.0.0.2" and relay = ip "10.0.0.3" in
  Ron.observe r a relay ~latency_ms:5.;
  Ron.observe r relay b ~latency_ms:5.;
  check "detour via the relay" true
    (match Ron.best_route r ~src:a ~dst:b with
     | Some (Ron.Via (v, _)) -> Ipv4.equal v relay
     | _ -> false);
  let ia = Ron.advertise ~island:(Island_id.named "R") ~node:relay (base_ia ()) in
  check "overlay node discoverable" true
    (Ron.discover ia = [ (Island_id.named "R", relay) ])

(* ------------------------- compressed codec + fuzz ------------------------- *)

let test_codec_compressed () =
  let ia =
    base_ia ()
    |> Ia.set_path_descriptor ~owners:[ Protocol_id.wiser ] ~field:"blob"
         (Value.Bytes (String.concat "" (List.init 100 (fun _ -> "wiser!"))))
  in
  let c = Dbgp_core.Codec.encode_compressed ia in
  check "roundtrip" true (Ia.equal ia (Dbgp_core.Codec.decode_compressed c));
  check "compresses repetitive descriptors" true
    (Dbgp_core.Codec.compressed_size ia < Dbgp_core.Codec.size ia / 2)

let qcheck_fuzz =
  let open QCheck in
  [ Test.make ~name:"codec decode never crashes on junk" ~count:500 string
      (fun s ->
        match Dbgp_core.Codec.decode s with
        | _ -> true
        | exception Dbgp_wire.Reader.Error _ -> true
        | exception Invalid_argument _ -> true);
    Test.make ~name:"message decode never crashes on junk" ~count:500 string
      (fun s ->
        match Dbgp_bgp.Message.decode s with
        | _ -> true
        | exception Dbgp_wire.Reader.Error _ -> true
        | exception Invalid_argument _ -> true);
    Test.make ~name:"legacy of_update total on decoded updates" ~count:200
      (list_of_size (Gen.int_range 1 5) (int_bound 100000))
      (fun path ->
        let ia =
          List.fold_left (fun ia n -> Ia.prepend_as (asn (n + 2)) ia) (base_ia ()) path
        in
        match Legacy.of_update (Legacy.to_update ia) with
        | Some _ -> true
        | None -> false) ]

let () =
  Alcotest.run "extensions"
    [ ("rbgp",
       [ Alcotest.test_case "backup roundtrip" `Quick test_rbgp_backup_roundtrip;
         Alcotest.test_case "most disjoint" `Quick test_rbgp_most_disjoint;
         Alcotest.test_case "module attaches backup" `Quick test_rbgp_module_attaches_backup;
         Alcotest.test_case "loser change re-advertised" `Quick
           test_rbgp_loser_change_readvertised ]);
      ("lisp", [ Alcotest.test_case "mobility" `Quick test_lisp_mobility ]);
      ("link-state",
       [ Alcotest.test_case "lsa validation" `Quick test_link_state_lsa_validation;
         Alcotest.test_case "flooding seq" `Quick test_link_state_flooding_seq;
         Alcotest.test_case "dijkstra" `Quick test_link_state_dijkstra;
         Alcotest.test_case "two-way check" `Quick test_link_state_two_way_check ]);
      ("hlp",
       [ Alcotest.test_case "cost accumulation" `Quick test_hlp_cost_accumulation;
         Alcotest.test_case "select cheapest" `Quick test_hlp_select_cheapest;
         Alcotest.test_case "partition blocks export" `Quick test_hlp_partition_blocks_export ]);
      ("legacy",
       [ Alcotest.test_case "roundtrip" `Quick test_legacy_roundtrip;
         Alcotest.test_case "as-path projection" `Quick test_legacy_as_path_projection;
         Alcotest.test_case "scrubbed degrades" `Quick test_legacy_scrubbed_degrades;
         Alcotest.test_case "wire roundtrip" `Quick test_legacy_wire_roundtrip;
         Alcotest.test_case "withdraw-only" `Quick test_legacy_withdraw_only;
         Alcotest.test_case "two-byte AS_TRANS" `Quick test_legacy_two_byte_as_trans ]);
      ("arrow",
       [ Alcotest.test_case "advertise/discover" `Quick test_arrow_advertise_discover;
         Alcotest.test_case "buy/stitch" `Quick test_arrow_buy_and_stitch ]);
      ("ron",
       [ Alcotest.test_case "detour selection" `Quick test_ron_detour;
         Alcotest.test_case "headers/discovery" `Quick test_ron_headers_and_discovery ]);
      ("compressed-codec",
       [ Alcotest.test_case "roundtrip+ratio" `Quick test_codec_compressed ]);
      ("fuzz", List.map QCheck_alcotest.to_alcotest qcheck_fuzz);
      ("header-builder",
       [ Alcotest.test_case "plan" `Quick test_header_builder_plan;
         Alcotest.test_case "stack" `Quick test_header_builder_stack;
         Alcotest.test_case "unreachable pathlets" `Quick test_header_builder_unreachable_pathlets ]) ]
