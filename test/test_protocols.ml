open Dbgp_types
module Ia = Dbgp_core.Ia
module Value = Dbgp_core.Value
module Dm = Dbgp_core.Decision_module
module Peer = Dbgp_core.Peer
module Wiser = Dbgp_protocols.Wiser
module Pathlet = Dbgp_protocols.Pathlet
module Scion = Dbgp_protocols.Scion_like
module Bgpsec = Dbgp_protocols.Bgpsec_like
module Miro = Dbgp_protocols.Miro
module Eqbgp = Dbgp_protocols.Eqbgp
module Portal_io = Dbgp_protocols.Portal_io

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let asn = Asn.of_int
let ip = Ipv4.of_string
let pfx = Prefix.of_string
let peer n = Peer.make ~asn:(asn n) ~addr:(Ipv4.of_octets 10 0 0 n)

let base_ia () =
  Ia.originate ~prefix:(pfx "99.0.0.0/24") ~origin_asn:(asn 1) ~next_hop:(ip "10.0.0.1") ()

let cand ?(peer_n = 2) ia = { Dm.from_peer = Some (peer peer_n); ia }

(* ------------------------- Wiser ------------------------- *)

let wiser_instance ?(cost = 10) ?(io = Portal_io.null) island portal =
  Wiser.create
    { Wiser.my_island = Island_id.named island; internal_cost = cost;
      portal = ip portal; io }

let test_wiser_contribute_accumulates () =
  let w = wiser_instance ~cost:7 "W" "172.16.0.1" in
  let m = Wiser.decision_module w in
  let ia1 = m.Dm.contribute ~me:(asn 2) (base_ia ()) in
  check "cost set" true (Wiser.cost_of ia1 = Some 7);
  let ia2 = m.Dm.contribute ~me:(asn 3) ia1 in
  check "cost accumulated" true (Wiser.cost_of ia2 = Some 14);
  check "portal attached" true
    (Ia.find_island_descriptor ~island:(Island_id.named "W") ~proto:Wiser.protocol
       ~field:Wiser.field_portal ia1
    = Some (Value.Addr (ip "172.16.0.1")))

let test_wiser_select_lowest_cost () =
  let w = wiser_instance "W" "172.16.0.1" in
  let m = Wiser.decision_module w in
  let with_cost c ia =
    Ia.set_path_descriptor ~owners:[ Wiser.protocol ] ~field:Wiser.field_cost
      (Value.Int c) ia
  in
  let cheap = cand ~peer_n:3 (with_cost 5 (Ia.prepend_as (asn 8) (base_ia ()))) in
  let pricey = cand ~peer_n:2 (with_cost 50 (base_ia ())) in
  check "lowest cost wins over shorter path" true
    (m.Dm.select ~prefix:(pfx "99.0.0.0/24") [ pricey; cheap ] = Some cheap);
  (* missing cost ranks below any known cost *)
  let unknown = cand ~peer_n:1 (base_ia ()) in
  check "known cost beats unknown" true
    (m.Dm.select ~prefix:(pfx "99.0.0.0/24") [ unknown; pricey ] = Some pricey)

let test_wiser_upstream_portal () =
  let my = Island_id.named "MINE" and theirs = Island_id.named "THEIRS" in
  let ia =
    base_ia ()
    |> Ia.declare_membership ~island:theirs ~members:[ asn 1 ]
    |> Ia.add_island_descriptor ~island:theirs ~proto:Wiser.protocol
         ~field:Wiser.field_portal (Value.Addr (ip "172.16.9.9"))
  in
  check "found" true (Wiser.upstream_portal ~my_island:my ia = Some (ip "172.16.9.9"));
  check "own island skipped" true (Wiser.upstream_portal ~my_island:theirs ia = None)

let test_wiser_cost_exchange () =
  let io, _ = Portal_io.in_memory () in
  (* Two islands: A advertises avg cost 100, B sees those costs raw and
     advertises avg cost 10 itself; after the exchange, B scales A's
     costs by 10/100 = 0.1. *)
  let a = wiser_instance ~io ~cost:100 "A" "172.16.0.1" in
  let b = wiser_instance ~io ~cost:10 "B" "172.16.0.2" in
  let ma = Wiser.decision_module a and mb = Wiser.decision_module b in
  (* A advertises one path with cost 100 (portal descriptor included). *)
  let from_a = ma.Dm.contribute ~me:(asn 1) (base_ia ()) in
  let from_a = Ia.declare_membership ~island:(Island_id.named "A") ~members:[ asn 1 ] from_a in
  (* B imports it (records the observation), then advertises its own. *)
  let imported = Option.get (mb.Dm.import_filter from_a) in
  check "unscaled on first sight" true (Wiser.cost_of imported = Some 100);
  ignore (mb.Dm.contribute ~me:(asn 2) (base_ia ()));
  Wiser.exchange_costs a;
  Wiser.exchange_costs b;
  (* Re-importing now scales by my_avg / their_avg = 0.1. *)
  let imported2 = Option.get (mb.Dm.import_filter from_a) in
  check "scaled cost" true (Wiser.cost_of imported2 = Some 10)

(* ------------------------- Pathlet ------------------------- *)

let test_pathlet_make_validation () =
  Alcotest.check_raises "empty" (Invalid_argument "Pathlet.make: empty hop list")
    (fun () -> ignore (Pathlet.make ~fid:1 []));
  Alcotest.check_raises "deliver not last"
    (Invalid_argument "Pathlet.make: Deliver must be last") (fun () ->
      ignore
        (Pathlet.make ~fid:1
           [ Pathlet.Deliver (pfx "1.0.0.0/8"); Pathlet.Router "r" ]))

let test_pathlet_compose () =
  let p1 = Pathlet.make ~fid:1 [ Pathlet.Router "a"; Pathlet.Router "b" ] in
  let p2 = Pathlet.make ~fid:2 [ Pathlet.Router "b"; Pathlet.Deliver (pfx "1.0.0.0/8") ] in
  let c = Pathlet.compose ~fid:9 p1 p2 in
  check "entry" true (Pathlet.entry c = Pathlet.Router "a");
  check "delivers" true
    (List.rev c.Pathlet.hops |> List.hd = Pathlet.Deliver (pfx "1.0.0.0/8"));
  check_int "junction dropped" 3 (List.length c.Pathlet.hops);
  Alcotest.check_raises "disconnected"
    (Invalid_argument "Pathlet.compose: pathlets do not connect") (fun () ->
      ignore (Pathlet.compose ~fid:9 p2 p1))

let test_pathlet_value_roundtrip () =
  let p =
    Pathlet.make ~fid:77
      [ Pathlet.Router "x"; Pathlet.Router "y"; Pathlet.Deliver (pfx "9.9.0.0/16") ]
  in
  (* Pathlets cross the wire as an island descriptor. *)
  let isl = Island_id.named "P" in
  check "roundtrip" true
    (Pathlet.extract (Pathlet.attach ~island:isl [ p ] (base_ia ())) = [ (isl, [ p ]) ]);
  let garbage =
    Ia.add_island_descriptor ~island:isl ~proto:Pathlet.protocol ~field:"pathlets"
      (Value.List [ Value.Int 3 ]) (base_ia ())
  in
  check "garbage" true (Pathlet.extract garbage = [ (isl, []) ])

let test_pathlet_store_routes () =
  let s = Pathlet.Store.create () in
  let dest = pfx "1.0.0.0/8" in
  List.iter (Pathlet.Store.add s)
    [ Pathlet.make ~fid:1 [ Pathlet.Router "a"; Pathlet.Router "b" ];
      Pathlet.make ~fid:2 [ Pathlet.Router "b"; Pathlet.Deliver dest ];
      Pathlet.make ~fid:3 [ Pathlet.Router "a"; Pathlet.Router "c" ];
      Pathlet.make ~fid:4 [ Pathlet.Router "c"; Pathlet.Deliver dest ];
      Pathlet.make ~fid:5 [ Pathlet.Router "a"; Pathlet.Deliver (pfx "2.0.0.0/8") ] ]
  ;
  let routes = Pathlet.Store.routes_to s ~from:"a" ~dest in
  check_int "two routes" 2 (List.length routes);
  check "fid replace" true
    ( Pathlet.Store.add s (Pathlet.make ~fid:1 [ Pathlet.Router "z"; Pathlet.Deliver dest ]);
      Pathlet.Store.size s = 5 )

let test_pathlet_store_no_fid_reuse_loop () =
  let s = Pathlet.Store.create () in
  let dest = pfx "1.0.0.0/8" in
  (* a->b, b->a cycle plus b->deliver: search must terminate. *)
  List.iter (Pathlet.Store.add s)
    [ Pathlet.make ~fid:1 [ Pathlet.Router "a"; Pathlet.Router "b" ];
      Pathlet.make ~fid:2 [ Pathlet.Router "b"; Pathlet.Router "a" ];
      Pathlet.make ~fid:3 [ Pathlet.Router "b"; Pathlet.Deliver dest ] ]
  ;
  let routes = Pathlet.Store.routes_to s ~from:"a" ~dest in
  check_int "one loop-free route" 1 (List.length routes)

let test_pathlet_attach_extract () =
  let isl = Island_id.named "P" in
  let ps = [ Pathlet.make ~fid:1 [ Pathlet.Router "a"; Pathlet.Deliver (pfx "1.0.0.0/8") ] ] in
  let ia = Pathlet.attach ~island:isl ps (base_ia ()) in
  match Pathlet.extract ia with
  | [ (i, got) ] ->
    check "island" true (Island_id.equal i isl);
    check "pathlets" true (got = ps)
  | _ -> Alcotest.fail "expected one island's pathlets"

let test_pathlet_translation () =
  let isl = Island_id.named "P" in
  let tr = Pathlet.translation ~island:isl ~origin_asn:(asn 7) ~next_hop:(ip "10.0.0.7") in
  let ps =
    [ Pathlet.make ~fid:1 [ Pathlet.Router "a"; Pathlet.Deliver (pfx "3.0.0.0/8") ] ]
  in
  let ia = Pathlet.attach ~island:isl ps (base_ia ()) in
  check "ingress harvests" true (tr.Dbgp_core.Translation.ingress ia = Some ps);
  check "ingress empty is none" true
    (tr.Dbgp_core.Translation.ingress (base_ia ()) = None);
  ( match tr.Dbgp_core.Translation.redistribute ps with
    | Some r -> check "redistributes deliverable prefix" true (Prefix.equal r.Ia.prefix (pfx "3.0.0.0/8"))
    | None -> Alcotest.fail "expected redistribution" );
  let out = tr.Dbgp_core.Translation.egress ps (base_ia ()) in
  check "egress attaches" true (Pathlet.extract out <> [])

(* ------------------------- Scion ------------------------- *)

let test_scion_attach_extract_choose () =
  let isl = Island_id.named "S" in
  let paths = [ [ "r1"; "r2"; "r3" ]; [ "r1"; "r3" ] ] in
  let ia = Scion.attach ~island:isl paths (base_ia ()) in
  check "extract" true (Scion.extract ~island:isl ia = paths);
  check "extract other island empty" true (Scion.extract ~island:(Island_id.named "T") ia = []);
  check "choose shortest" true (Scion.choose_path paths = Some [ "r1"; "r3" ]);
  check "choose empty" true (Scion.choose_path [] = None)

let test_scion_module_contributes () =
  let isl = Island_id.named "S" in
  let m = Scion.decision_module ~island:isl ~exported:(fun () -> [ [ "a" ] ]) in
  let out = m.Dm.contribute ~me:(asn 2) (base_ia ()) in
  check "paths attached" true (Scion.extract ~island:isl out = [ [ "a" ] ]);
  let m0 = Scion.decision_module ~island:isl ~exported:(fun () -> []) in
  check "no paths, untouched" true
    (Scion.extract ~island:isl (m0.Dm.contribute ~me:(asn 2) (base_ia ())) = [])

(* ------------------------- Bgpsec ------------------------- *)

let keys = [ (1, "k1"); (2, "k2"); (3, "k3") ]
let pki a = List.assoc_opt (Asn.to_int a) keys

let test_bgpsec_mac_deterministic () =
  (* The origin's attestation MAC over the same advertisement. *)
  let mac secret =
    match Bgpsec.attestations (Bgpsec.sign_origin ~secret ~me:(asn 1) (base_ia ())) with
    | [ a ] -> a.Bgpsec.mac
    | _ -> Alcotest.fail "one attestation expected"
  in
  let m1 = mac "s" in
  check "deterministic" true (String.equal m1 (mac "s"));
  check "keyed" false (String.equal m1 (mac "other"));
  check_int "128-bit hex" 32 (String.length m1)

let full_chain () =
  let cfg2 = { Bgpsec.me = asn 2; secret = "k2"; pki; require_full = false; authorized = None } in
  let cfg3 = { Bgpsec.me = asn 3; secret = "k3"; pki; require_full = false; authorized = None } in
  let m2 = Bgpsec.decision_module cfg2 and m3 = Bgpsec.decision_module cfg3 in
  base_ia ()
  |> Bgpsec.sign_origin ~secret:"k1" ~me:(asn 1)
  |> m2.Dm.contribute ~me:(asn 2)
  |> Ia.prepend_as (asn 2)
  |> m3.Dm.contribute ~me:(asn 3)
  |> Ia.prepend_as (asn 3)

let test_bgpsec_verify_full () =
  let ia = full_chain () in
  check_int "three attestations" 3 (List.length (Bgpsec.attestations ia));
  check "full chain verifies" true (Bgpsec.verify ~pki ia = Bgpsec.Full)

let test_bgpsec_gap_is_partial () =
  (* AS 2 does not participate: no attestation from it. *)
  let ia =
    base_ia ()
    |> Bgpsec.sign_origin ~secret:"k1" ~me:(asn 1)
    |> Ia.prepend_as (asn 2)
  in
  match Bgpsec.verify ~pki ia with
  | Bgpsec.Partial missing -> check "as2 missing" true (missing = [ asn 2 ])
  | _ -> Alcotest.fail "expected partial"

let test_bgpsec_tamper_broken () =
  let ia = full_chain () in
  (* Tamper with the path: swap an AS. *)
  let tampered = { ia with Ia.path_vector = List.rev ia.Ia.path_vector } in
  ( match Bgpsec.verify ~pki tampered with
    | Bgpsec.Broken _ -> ()
    | _ -> Alcotest.fail "expected broken chain" );
  (* Tamper with the prefix. *)
  let repre = { ia with Ia.prefix = pfx "66.0.0.0/8" } in
  match Bgpsec.verify ~pki repre with
  | Bgpsec.Broken _ -> ()
  | _ -> Alcotest.fail "expected broken on prefix change"

let test_bgpsec_module_filters () =
  let cfg = { Bgpsec.me = asn 9; secret = "k9"; pki; require_full = true; authorized = None } in
  let m = Bgpsec.decision_module cfg in
  let good = full_chain () in
  check "full accepted" true (m.Dm.import_filter good <> None);
  let gap =
    base_ia () |> Bgpsec.sign_origin ~secret:"k1" ~me:(asn 1) |> Ia.prepend_as (asn 2)
  in
  check "partial rejected when require_full" true (m.Dm.import_filter gap = None);
  let lax = Bgpsec.decision_module { cfg with Bgpsec.require_full = false } in
  check "partial accepted when lax" true (lax.Dm.import_filter gap <> None);
  let forged =
    { good with Ia.prefix = pfx "66.0.0.0/8" }
  in
  check "broken always rejected" true (lax.Dm.import_filter forged = None)

let test_bgpsec_select_prefers_attested () =
  let cfg = { Bgpsec.me = asn 9; secret = "k9"; pki; require_full = false; authorized = None } in
  let m = Bgpsec.decision_module cfg in
  let attested = cand ~peer_n:2 (full_chain ()) in
  let longer_unattested = cand ~peer_n:1 (base_ia ()) in
  check "attested wins though longer" true
    (m.Dm.select ~prefix:(pfx "99.0.0.0/24") [ longer_unattested; attested ]
    = Some attested)

let test_bgpsec_drop_filter () =
  let ia = full_chain () in
  match Bgpsec.drop_attestations ia with
  | Some ia' -> check "attestations gone" true (Bgpsec.attestations ia' = [])
  | None -> Alcotest.fail "filter should keep the IA"

(* ------------------------- Miro ------------------------- *)

let miro_inst () =
  Miro.create
    { Miro.my_island = Island_id.named "M";
      portal = ip "172.16.5.5";
      offers =
        [ { Miro.dest = pfx "8.0.0.0/8"; via = "fast"; price = 20; tunnel_endpoint = ip "172.16.5.6" };
          { Miro.dest = pfx "8.0.0.0/8"; via = "cheap"; price = 5; tunnel_endpoint = ip "172.16.5.7" } ] }

let test_miro_advertise_discover () =
  let m = miro_inst () in
  let ia = Miro.advertise m (base_ia ()) in
  match Miro.discover ia with
  | [ d ] ->
    check "portal addr" true (Ipv4.equal d.Miro.portal_addr (ip "172.16.5.5"));
    check_int "paths count" 2 d.Miro.n_paths
  | _ -> Alcotest.fail "expected one discovery"

let test_miro_serve_budget () =
  let m = miro_inst () in
  ( match Miro.serve m (Value.Pair (Value.Pfx (pfx "8.0.0.0/8"), Value.Int 10)) with
    | Some (Value.Pair (Value.Str via, Value.Addr _)) ->
      check "cheapest affordable" true (via = "cheap")
    | _ -> Alcotest.fail "expected a deal" );
  check "budget too low" true
    (Miro.serve m (Value.Pair (Value.Pfx (pfx "8.0.0.0/8"), Value.Int 1)) = None);
  check "unknown dest" true
    (Miro.serve m (Value.Pair (Value.Pfx (pfx "9.0.0.0/8"), Value.Int 100)) = None);
  check "malformed request" true (Miro.serve m (Value.Int 3) = None);
  check_int "sales recorded" 1 (List.length (Miro.sold m))

let test_miro_negotiate_via_io () =
  let m = miro_inst () in
  let io, register = Portal_io.in_memory () in
  register ~portal:(ip "172.16.5.5") ~service:Miro.service (Miro.serve m);
  ( match Miro.negotiate ~io ~portal:(ip "172.16.5.5") ~dest:(pfx "8.0.0.0/8") ~budget:50 with
    | Some (via, ep) ->
      check "via cheap" true (via = "cheap");
      check "endpoint" true (Ipv4.equal ep (ip "172.16.5.7"))
    | None -> Alcotest.fail "negotiation failed" );
  check "unreachable portal" true
    (Miro.negotiate ~io:Portal_io.null ~portal:(ip "172.16.5.5")
       ~dest:(pfx "8.0.0.0/8") ~budget:50
    = None)

(* ------------------------- Eqbgp ------------------------- *)

let test_eqbgp_contribute_bottleneck () =
  let m = Eqbgp.decision_module { Eqbgp.ingress_bandwidth = 100 } in
  let ia1 = m.Dm.contribute ~me:(asn 2) (base_ia ()) in
  check "first sets own bw" true (Eqbgp.bandwidth_of ia1 = Some 100);
  let m50 = Eqbgp.decision_module { Eqbgp.ingress_bandwidth = 50 } in
  let ia2 = m50.Dm.contribute ~me:(asn 3) ia1 in
  check "narrows" true (Eqbgp.bandwidth_of ia2 = Some 50);
  let m200 = Eqbgp.decision_module { Eqbgp.ingress_bandwidth = 200 } in
  let ia3 = m200.Dm.contribute ~me:(asn 4) ia2 in
  check "cannot widen" true (Eqbgp.bandwidth_of ia3 = Some 50)

let test_eqbgp_select_widest () =
  let m = Eqbgp.decision_module { Eqbgp.ingress_bandwidth = 1 } in
  let with_bw b ia =
    Ia.set_path_descriptor ~owners:[ Eqbgp.protocol ] ~field:"eqbgp-bw"
      (Value.Int b) ia
  in
  let wide = cand ~peer_n:3 (with_bw 900 (Ia.prepend_as (asn 8) (base_ia ()))) in
  let narrow = cand ~peer_n:2 (with_bw 10 (base_ia ())) in
  let unknown = cand ~peer_n:1 (base_ia ()) in
  check "widest wins over shorter" true
    (m.Dm.select ~prefix:(pfx "99.0.0.0/24") [ narrow; wide ] = Some wide);
  check "known beats unknown" true
    (m.Dm.select ~prefix:(pfx "99.0.0.0/24") [ unknown; narrow ] = Some narrow)

let qcheck =
  let open QCheck in
  [ Test.make ~name:"pathlet value roundtrip" ~count:200
      (pair (int_bound 10000) (list_of_size (Gen.int_range 1 5) (string_gen_of_size (Gen.return 3) Gen.printable)))
      (fun (fid, routers) ->
        let p = Pathlet.make ~fid (List.map (fun r -> Pathlet.Router r) routers) in
        let isl = Island_id.named "P" in
        Pathlet.extract (Pathlet.attach ~island:isl [ p ] (base_ia ())) = [ (isl, [ p ]) ]);
    Test.make ~name:"bgpsec verify accepts exactly the signed chain" ~count:50
      (list_of_size (Gen.int_range 0 4) (int_bound 2))
      (fun hops ->
        (* build chain 1 -> (hops of ASes 2/3/4) and check Full *)
        let next = ref 1 in
        let ia = ref (Bgpsec.sign_origin ~secret:"k1" ~me:(asn 1) (base_ia ())) in
        List.iter
          (fun _ ->
            incr next;
            let n = 2 + (!next mod 2) in
            let secret = List.assoc n keys in
            let m = Bgpsec.decision_module { Bgpsec.me = asn n; secret; pki; require_full = false; authorized = None } in
            if not (List.mem (asn n) (Ia.asns_on_path !ia)) then
              ia := Ia.prepend_as (asn n) (m.Dm.contribute ~me:(asn n) !ia))
          hops;
        Bgpsec.verify ~pki !ia = Bgpsec.Full) ]

let () =
  Alcotest.run "protocols"
    [ ("wiser",
       [ Alcotest.test_case "contribute accumulates" `Quick test_wiser_contribute_accumulates;
         Alcotest.test_case "select lowest cost" `Quick test_wiser_select_lowest_cost;
         Alcotest.test_case "upstream portal" `Quick test_wiser_upstream_portal;
         Alcotest.test_case "cost exchange" `Quick test_wiser_cost_exchange ]);
      ("pathlet",
       [ Alcotest.test_case "validation" `Quick test_pathlet_make_validation;
         Alcotest.test_case "compose" `Quick test_pathlet_compose;
         Alcotest.test_case "value roundtrip" `Quick test_pathlet_value_roundtrip;
         Alcotest.test_case "store routes" `Quick test_pathlet_store_routes;
         Alcotest.test_case "loop-free search" `Quick test_pathlet_store_no_fid_reuse_loop;
         Alcotest.test_case "attach/extract" `Quick test_pathlet_attach_extract;
         Alcotest.test_case "translation" `Quick test_pathlet_translation ]);
      ("scion",
       [ Alcotest.test_case "attach/extract/choose" `Quick test_scion_attach_extract_choose;
         Alcotest.test_case "module contributes" `Quick test_scion_module_contributes ]);
      ("bgpsec",
       [ Alcotest.test_case "mac" `Quick test_bgpsec_mac_deterministic;
         Alcotest.test_case "full chain" `Quick test_bgpsec_verify_full;
         Alcotest.test_case "gap is partial" `Quick test_bgpsec_gap_is_partial;
         Alcotest.test_case "tamper broken" `Quick test_bgpsec_tamper_broken;
         Alcotest.test_case "module filters" `Quick test_bgpsec_module_filters;
         Alcotest.test_case "select prefers attested" `Quick test_bgpsec_select_prefers_attested;
         Alcotest.test_case "drop filter" `Quick test_bgpsec_drop_filter ]);
      ("miro",
       [ Alcotest.test_case "advertise/discover" `Quick test_miro_advertise_discover;
         Alcotest.test_case "serve budget" `Quick test_miro_serve_budget;
         Alcotest.test_case "negotiate via io" `Quick test_miro_negotiate_via_io ]);
      ("eqbgp",
       [ Alcotest.test_case "bottleneck narrows" `Quick test_eqbgp_contribute_bottleneck;
         Alcotest.test_case "select widest" `Quick test_eqbgp_select_widest ]);
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck) ]
