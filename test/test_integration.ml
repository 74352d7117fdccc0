(* Cross-module integration: full speakers on the simulator, mixed
   protocols, pass-through ablation, failure recovery, and control-plane
   to data-plane wiring. *)

open Dbgp_types
module Speaker = Dbgp_core.Speaker
module Ia = Dbgp_core.Ia
module Value = Dbgp_core.Value
module Dm = Dbgp_core.Decision_module
module Network = Dbgp_netsim.Network
module P = Dbgp_bgp.Policy
module Wiser = Dbgp_protocols.Wiser
module Eqbgp = Dbgp_protocols.Eqbgp
module Bgpsec = Dbgp_protocols.Bgpsec_like
module Portal_io = Dbgp_protocols.Portal_io
module Harness = Dbgp_eval.Harness
open Dbgp_dataplane

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let asn = Asn.of_int
let pfx = Prefix.of_string

let add net ?island ?passthrough n =
  let a = asn n in
  let s =
    Speaker.create
      (Speaker.config ?island ?passthrough ~asn:a ~addr:(Network.speaker_addr a) ())
  in
  Network.add_speaker net s;
  s

let cust net a b =
  Network.link net ~a:(asn a) ~b:(asn b) ~b_is:P.To_provider ()

let origin_ia n prefix =
  Ia.originate ~prefix:(pfx prefix) ~origin_asn:(asn n)
    ~next_hop:(Network.speaker_addr (asn n)) ()

(* Multiple protocols coexisting in one IA across a shared path:
   Wiser and EQ-BGP both attach control information; a gulf AS passes
   both through; the receiver extracts both. *)
let test_two_fixes_coexist () =
  let net = Network.create () in
  let isl_w = Island_id.named "W" in
  let d = add net ~island:isl_w 1 in
  let mid = add net ~island:isl_w 2 in
  let _gulf = add net 3 in
  let recv = add net 4 in
  let wiser =
    Wiser.create
      { Wiser.my_island = isl_w; internal_cost = 33;
        portal = Ipv4.of_string "172.16.0.1"; io = Portal_io.null }
  in
  Speaker.add_module mid (Wiser.decision_module wiser);
  Speaker.add_module mid (Eqbgp.decision_module { Eqbgp.ingress_bandwidth = 77 });
  ignore d;
  Speaker.set_active mid (pfx "99.0.0.0/24") Wiser.protocol;
  cust net 1 2;
  cust net 2 3;
  cust net 3 4;
  Network.originate net (asn 1) (origin_ia 1 "99.0.0.0/24");
  ignore (Network.run net);
  match Speaker.best recv (pfx "99.0.0.0/24") with
  | None -> Alcotest.fail "route must reach AS 4"
  | Some chosen ->
    let ia = chosen.Speaker.candidate.Dm.ia in
    check "wiser cost crossed gulf" true (Wiser.cost_of ia = Some 33);
    check "eqbgp bandwidth crossed gulf" true (Eqbgp.bandwidth_of ia = Some 77);
    check_int "both protocols + bgp" 3 (Protocol_id.Set.cardinal (Ia.protocols ia))

(* The pass-through ablation: identical topology, gulf without
   pass-through loses both descriptors. *)
let test_passthrough_ablation () =
  let net = Network.create () in
  let isl_w = Island_id.named "W" in
  let _d = add net ~island:isl_w 1 in
  let mid = add net ~island:isl_w 2 in
  let _gulf = add net ~passthrough:false 3 in
  let recv = add net 4 in
  let wiser =
    Wiser.create
      { Wiser.my_island = isl_w; internal_cost = 33;
        portal = Ipv4.of_string "172.16.0.1"; io = Portal_io.null }
  in
  Speaker.add_module mid (Wiser.decision_module wiser);
  Speaker.set_active mid (pfx "99.0.0.0/24") Wiser.protocol;
  cust net 1 2;
  cust net 2 3;
  cust net 3 4;
  Network.originate net (asn 1) (origin_ia 1 "99.0.0.0/24");
  ignore (Network.run net);
  match Speaker.best recv (pfx "99.0.0.0/24") with
  | None -> Alcotest.fail "plain BGP still delivers connectivity"
  | Some chosen ->
    check "cost stripped at gulf" true
      (Wiser.cost_of chosen.Speaker.candidate.Dm.ia = None)

(* BGPSec across a clean chain: receiver with the PKI verifies a chain
   built hop-by-hop by speakers' contribute; a spoofed injection without
   attestations ranks below the attested route. *)
let test_bgpsec_end_to_end () =
  let keys = [ (1, "s1"); (2, "s2"); (3, "s3"); (4, "s4") ] in
  let pki a = List.assoc_opt (Asn.to_int a) keys in
  let net = Network.create () in
  let speakers =
    List.map
      (fun n ->
        let s = add net n in
        Speaker.add_module s
          (Bgpsec.decision_module
             { Bgpsec.me = asn n; secret = List.assoc n keys; pki; require_full = false; authorized = None });
        Speaker.set_active s (pfx "99.0.0.0/24") Bgpsec.protocol;
        s)
      [ 1; 2; 3; 4 ]
  in
  cust net 1 2;
  cust net 2 3;
  cust net 3 4;
  Network.originate net (asn 1)
    (Bgpsec.sign_origin ~secret:"s1" ~me:(asn 1) (origin_ia 1 "99.0.0.0/24"));
  ignore (Network.run net);
  let recv = List.nth speakers 3 in
  match Speaker.best recv (pfx "99.0.0.0/24") with
  | None -> Alcotest.fail "attested route should arrive"
  | Some chosen ->
    let ia = chosen.Speaker.candidate.Dm.ia in
    check "chain verifies" true (Bgpsec.verify ~pki ia = Bgpsec.Full);
    check_int "three attestations (origin + 2 transit)" 3
      (List.length (Bgpsec.attestations ia))

(* Drive the data plane from converged control-plane state: build FIBs
   out of speakers' best routes and forward a packet along them. *)
let test_control_to_data_plane () =
  let net = Network.create () in
  List.iter (fun n -> ignore (add net n)) [ 1; 2; 3; 4 ];
  cust net 1 2;
  cust net 2 3;
  cust net 3 4;
  Network.originate net (asn 1) (origin_ia 1 "99.0.0.0/24");
  ignore (Network.run net);
  let engine = Engine.create () in
  List.iter
    (fun n -> Engine.add engine (Harness.forwarder (Network.speaker net (asn n))))
    [ 1; 2; 3; 4 ];
  let pkt =
    Packet.make
      ~headers:
        [ Header.Ipv4_hdr
            { src = Network.speaker_addr (asn 4);
              dst = Ipv4.of_string "99.0.0.9" } ]
      ~payload:"end-to-end" ()
  in
  match Engine.route engine ~from:(asn 4) pkt with
  | Engine.Delivered { at; path } ->
    check "delivered at origin AS" true (Asn.equal at (asn 1));
    check "follows the AS path" true (List.map Asn.to_int path = [ 4; 3; 2; 1 ])
  | Engine.Dropped { reason; _ } -> Alcotest.fail ("dropped: " ^ reason)

(* The data plane's longest match agrees with the control plane's.
   Every AS exports every route, so every AS learns three overlapping
   prefixes originated by three different ASes.  From every AS a probe
   at each nesting level must reach the most specific prefix's origin
   along the AS path of the route the source selected for that prefix;
   an address outside every prefix has no route anywhere. *)
let test_forwarding_follows_selection () =
  let net = Network.create () in
  let ases = [ 1; 2; 3; 4; 5; 6 ] in
  List.iter (fun n -> Speaker.set_export_rule (add net n) P.export_all) ases;
  List.iter
    (fun (a, b) -> cust net a b)
    [ (1, 2); (2, 3); (3, 4); (4, 5); (5, 6); (6, 1); (2, 5) ];
  let levels =
    [ ("10.0.0.0/8", 1, "10.200.0.1"); ("10.1.0.0/16", 4, "10.1.200.1");
      ("10.1.2.0/24", 6, "10.1.2.3") ]
  in
  List.iter (fun (q, o, _) -> Network.originate net (asn o) (origin_ia o q)) levels;
  ignore (Network.run net);
  let engine = Engine.create () in
  List.iter
    (fun n -> Engine.add engine (Harness.forwarder (Network.speaker net (asn n))))
    ases;
  let probe src dst =
    let src_addr = Network.speaker_addr (asn src) in
    Engine.route engine ~from:(asn src)
      (Packet.make
         ~headers:[ Header.Ipv4_hdr { src = src_addr; dst = Ipv4.of_string dst } ]
         ~payload:"probe" ())
  in
  List.iter
    (fun src ->
      List.iter
        (fun (q, origin, dst) ->
          let chosen =
            match Speaker.best (Network.speaker net (asn src)) (pfx q) with
            | Some c -> c
            | None -> Alcotest.failf "AS %d has no route to %s" src q
          in
          let want =
            match chosen.Speaker.candidate.Dm.from_peer with
            | None -> [ src ]
            | Some _ -> src :: List.map Asn.to_int (Ia.asns_on_path chosen.candidate.ia)
          in
          match probe src dst with
          | Engine.Delivered { at; path } ->
            check_int
              (Printf.sprintf "AS %d -> %s: origin" src dst)
              origin (Asn.to_int at);
            Alcotest.(check (list int))
              (Printf.sprintf "AS %d -> %s: selected path" src dst)
              want (List.map Asn.to_int path)
          | Engine.Dropped { reason; _ } ->
            Alcotest.failf "AS %d -> %s dropped: %s" src dst reason)
        levels;
      match probe src "192.0.2.1" with
      | Engine.Dropped { at; reason } ->
        check_int "dropped at the source" src (Asn.to_int at);
        Alcotest.(check string) "outside every prefix" "no IPv4 route" reason
      | Engine.Delivered _ -> Alcotest.fail "an unrouted address was delivered")
    ases

(* Failure recovery with a protocol descriptor: after the primary link
   dies, the alternate path's IA still carries the descriptor. *)
let test_failure_keeps_descriptors () =
  let net = Network.create () in
  let isl = Island_id.named "W" in
  let orig = add net ~island:isl 1 in
  let _via2 = add net 2 in
  let _via3 = add net 3 in
  let recv = add net 4 in
  let wiser =
    Wiser.create
      { Wiser.my_island = isl; internal_cost = 5;
        portal = Ipv4.of_string "172.16.0.9"; io = Portal_io.null }
  in
  Speaker.add_module orig (Wiser.decision_module wiser);
  Speaker.set_active orig (pfx "99.0.0.0/24") Wiser.protocol;
  (* 1 is customer of 2 and 3; both are customers of 4. *)
  cust net 1 2;
  cust net 1 3;
  cust net 2 4;
  cust net 3 4;
  Network.originate net (asn 1) (origin_ia 1 "99.0.0.0/24");
  ignore (Network.run net);
  let path_via () =
    match Speaker.best recv (pfx "99.0.0.0/24") with
    | Some c -> Ia.asns_on_path c.Speaker.candidate.Dm.ia
    | None -> []
  in
  let first = path_via () in
  check "reachable" true (first <> []);
  let middle = List.hd first in
  Network.fail_link net middle (asn 4);
  ignore (Network.run net);
  let second = path_via () in
  check "rerouted" true (second <> [] && not (List.mem middle second));
  match Speaker.best recv (pfx "99.0.0.0/24") with
  | Some c ->
    (* The origin contributes cost only on re-advertised routes; after
       failover the alternate IA must still carry BGP info and remain
       loop-free. *)
    check "alternate IA intact" false (Ia.has_loop c.Speaker.candidate.Dm.ia)
  | None -> Alcotest.fail "alternate path lost"

(* Convergence cost accounting: messages and bytes grow with topology
   size; converged_at reflects link latency. *)
let test_convergence_accounting () =
  let run n_ases =
    let net = Network.create () in
    List.iter (fun n -> ignore (add net n)) (List.init n_ases (fun i -> i + 1));
    List.iter (fun i -> cust net i (i + 1)) (List.init (n_ases - 1) (fun i -> i + 1));
    Network.originate net (asn 1) (origin_ia 1 "99.0.0.0/24");
    Network.run net
  in
  let small = run 3 and large = run 8 in
  check "more ASes, more messages" true
    (large.Network.messages > small.Network.messages);
  check "more ASes, later convergence" true
    (large.Network.converged_at > small.Network.converged_at)

(* The origin must not accept its own prefix back (loop suppression at
   the origin). *)
let test_origin_loop_suppression () =
  let net = Network.create () in
  let s1 = add net 1 in
  let _s2 = add net 2 in
  cust net 1 2;
  Network.originate net (asn 1) (origin_ia 1 "99.0.0.0/24");
  ignore (Network.run net);
  match Speaker.best s1 (pfx "99.0.0.0/24") with
  | Some c ->
    check "origin keeps its local route" true
      (c.Speaker.candidate.Dm.from_peer = None)
  | None -> Alcotest.fail "origin lost its own route"

(* R-BGP end-to-end: backup paths disseminated through the network and
   usable after the primary's failure. *)
let test_rbgp_failover_network () =
  let net = Network.create () in
  List.iter (fun n -> ignore (add net n)) [ 1; 2; 3; 4; 5 ];
  (* 1 -> {2, 3} -> 4 -> 5: AS 4 sees two candidates and advertises the
     loser as a backup to AS 5. *)
  cust net 1 2;
  cust net 1 3;
  cust net 2 4;
  cust net 3 4;
  cust net 4 5;
  let rbgp = Dbgp_protocols.Rbgp.decision_module () in
  let s4 = Network.speaker net (asn 4) in
  Speaker.add_module s4 rbgp;
  Speaker.set_active s4 (pfx "99.0.0.0/24") Dbgp_protocols.Rbgp.protocol;
  Network.originate net (asn 1) (origin_ia 1 "99.0.0.0/24");
  ignore (Network.run net);
  let s5 = Network.speaker net (asn 5) in
  match Speaker.best s5 (pfx "99.0.0.0/24") with
  | None -> Alcotest.fail "AS 5 should have a route"
  | Some chosen ->
    let ia = chosen.Speaker.candidate.Dm.ia in
    ( match Dbgp_protocols.Rbgp.failover ia with
      | Some backup ->
        let primary_mid = List.nth (Ia.asns_on_path ia) 1 in
        check "backup avoids the primary's middle AS" false
          (List.exists (Path_elem.mentions_asn primary_mid) backup)
      | None -> Alcotest.fail "backup should have been disseminated" )

(* HLP island in the middle of a chain accumulates interior link-state
   cost into the advertised IA. *)
let test_hlp_over_network () =
  let net = Network.create () in
  let isl = Island_id.named "H" in
  let _a = add net 1 in
  let h = add net ~island:isl 2 in
  let _b = add net 3 in
  let db = Dbgp_topology.Link_state.create () in
  List.iter
    (fun l -> ignore (Dbgp_topology.Link_state.install db l))
    [ Dbgp_topology.Link_state.lsa ~router:"in" ~seq:1 [ ("mid", 2) ];
      Dbgp_topology.Link_state.lsa ~router:"mid" ~seq:1 [ ("in", 2); ("out", 3) ];
      Dbgp_topology.Link_state.lsa ~router:"out" ~seq:1 [ ("mid", 3) ] ];
  Speaker.add_module h
    (Dbgp_protocols.Hlp_like.decision_module
       { Dbgp_protocols.Hlp_like.my_island = isl; lsdb = db; ingress = "in";
         egress = "out"; peering_cost = 1 });
  Speaker.set_active h (pfx "99.0.0.0/24") Dbgp_protocols.Hlp_like.protocol;
  cust net 1 2;
  cust net 2 3;
  Network.originate net (asn 1) (origin_ia 1 "99.0.0.0/24");
  ignore (Network.run net);
  match Speaker.best (Network.speaker net (asn 3)) (pfx "99.0.0.0/24") with
  | None -> Alcotest.fail "route must cross the HLP island"
  | Some chosen ->
    check "interior cost 5 + peering 1" true
      (Dbgp_protocols.Hlp_like.cost_of chosen.Speaker.candidate.Dm.ia = Some 6)

(* Section 3: D-BGP works for ASes with distributed control (one speaker
   per border router/AS) and centralized control (one speaker for the
   whole island).  An external observer must see equivalent IAs. *)
let test_centralized_equals_distributed () =
  let isl = Island_id.named "C" in
  let observe build =
    let net = Network.create () in
    build net;
    ignore (Network.run net);
    match Speaker.best (Network.speaker net (asn 9)) (pfx "99.0.0.0/24") with
    | Some chosen -> Some chosen.Speaker.candidate.Dm.ia
    | None -> None
  in
  let mk net ?(members = [ asn 2 ]) n =
    let s =
      Speaker.create
        (Speaker.config ~island:isl ~island_members:members
           ~hide_island_interior:true ~asn:(asn n)
           ~addr:(Network.speaker_addr (asn n)) ())
    in
    Network.add_speaker net s;
    s
  in
  (* Distributed: ASes 2 and 3 are separate island-member speakers. *)
  let distributed net =
    ignore (add net 1);
    ignore (mk net ~members:[ asn 2; asn 3 ] 2);
    ignore (mk net ~members:[ asn 2; asn 3 ] 3);
    ignore (add net 9);
    cust net 1 2;
    cust net 2 3;
    cust net 3 9;
    Network.originate net (asn 1) (origin_ia 1 "99.0.0.0/24")
  in
  (* Centralized: one speaker (AS 2) represents the island. *)
  let centralized net =
    ignore (add net 1);
    ignore (mk net ~members:[ asn 2; asn 3 ] 2);
    ignore (add net 9);
    cust net 1 2;
    cust net 2 9;
    Network.originate net (asn 1) (origin_ia 1 "99.0.0.0/24")
  in
  match (observe distributed, observe centralized) with
  | Some d, Some c ->
    check "same islands on path" true
      (List.map Island_id.to_string (Ia.islands_on_path d)
      = List.map Island_id.to_string (Ia.islands_on_path c));
    (* The island interior is abstracted in both cases: the external
       observer sees island ID + origin regardless of how many speakers
       the island runs. *)
    check "island interior hidden (distributed)" true
      (not (List.mem (asn 3) (Ia.asns_on_path d)));
    check_int "identical abstracted path length" (Ia.path_length c) (Ia.path_length d);
    check "same protocol set" true
      (Protocol_id.Set.equal (Ia.protocols d) (Ia.protocols c))
  | _ -> Alcotest.fail "both deployments must deliver the route"

(* ------------------------------------------------------------------ *)
(* Randomized whole-network invariants                                  *)
(* ------------------------------------------------------------------ *)

(* Build a random connected customer/provider topology, originate a few
   prefixes from random ASes, optionally fail random links, and check
   global invariants over every speaker's state. *)
let random_network_invariants seed =
  let rng = Dbgp_types.Prng.create seed in
  let n = 8 + Dbgp_types.Prng.int rng 10 in
  let g =
    Dbgp_topology.Brite.generate rng
      { Dbgp_topology.Brite.default with Dbgp_topology.Brite.n }
  in
  let net = Network.create () in
  for i = 1 to n do
    ignore (add net i)
  done;
  Dbgp_topology.As_graph.fold_edges
    (fun a b view () ->
      let rel =
        match view with
        | Dbgp_topology.As_graph.Customer_of_me -> P.To_customer
        | Dbgp_topology.As_graph.Provider_of_me -> P.To_provider
        | Dbgp_topology.As_graph.Peer_of_me -> P.To_peer
      in
      Network.link net ~a:(asn (a + 1)) ~b:(asn (b + 1)) ~b_is:rel ())
    g ();
  let origins =
    List.init 3 (fun i -> (1 + Dbgp_types.Prng.int rng n, 30 + i))
  in
  List.iter
    (fun (o, octet) ->
      Network.originate net (asn o)
        (origin_ia o (Printf.sprintf "99.0.%d.0/24" octet)))
    origins;
  ignore (Network.run net);
  (* random link failure *)
  ( if Dbgp_types.Prng.bool rng then
      let a = Dbgp_types.Prng.int rng n in
      match Dbgp_topology.As_graph.neighbors g a with
      | [] -> ()
      | nbrs ->
        let b, _ = List.nth nbrs (Dbgp_types.Prng.int rng (List.length nbrs)) in
        Network.fail_link net (asn (a + 1)) (asn (b + 1)) );
  ignore (Network.run net);
  (* Invariants: every selected route is loop-free and starts with the
     advertising neighbor; the adjacent-rib-out of every speaker never
     contains the receiving neighbor's own ASN. *)
  List.for_all
    (fun v ->
      let sp = Network.speaker net (asn v) in
      List.for_all
        (fun (_, (chosen : Speaker.chosen)) ->
          let ia = chosen.Speaker.candidate.Dm.ia in
          (not (Ia.has_loop ia))
          && ( match chosen.Speaker.candidate.Dm.from_peer with
               | None ->
                 (* locally originated: the only AS on the path is me *)
                 Ia.asns_on_path ia = [ asn v ]
               | Some p -> (
                 (not (List.mem (asn v) (Ia.asns_on_path ia)))
                 &&
                 match Ia.asns_on_path ia with
                 | first :: _ -> Asn.equal first p.Dbgp_core.Peer.asn
                 | [] -> false ) ))
        (Speaker.best_routes sp)
      && List.for_all
           (fun (nbr : Speaker.neighbor) ->
             List.for_all
               (fun (_, out_ia) ->
                 not
                   (List.mem nbr.Speaker.peer.Dbgp_core.Peer.asn
                      (Ia.asns_on_path out_ia)))
               (Speaker.adj_out sp nbr.Speaker.peer))
           (Speaker.neighbors sp))
    (List.init n (fun i -> i + 1))

let qcheck_invariants =
  [ QCheck.Test.make ~name:"random networks keep global invariants" ~count:25
      (QCheck.int_bound 10_000) random_network_invariants ]

let () =
  Alcotest.run "integration"
    [ ("multi-protocol",
       [ Alcotest.test_case "two fixes coexist" `Quick test_two_fixes_coexist;
         Alcotest.test_case "pass-through ablation" `Quick test_passthrough_ablation;
         Alcotest.test_case "bgpsec end-to-end" `Quick test_bgpsec_end_to_end ]);
      ("planes",
       [ Alcotest.test_case "control to data plane" `Quick test_control_to_data_plane;
         Alcotest.test_case "forwarding follows selection" `Quick
           test_forwarding_follows_selection ]);
      ("dynamics",
       [ Alcotest.test_case "failure keeps descriptors" `Quick test_failure_keeps_descriptors;
         Alcotest.test_case "convergence accounting" `Quick test_convergence_accounting;
         Alcotest.test_case "origin loop suppression" `Quick test_origin_loop_suppression ]);
      ("extension-protocols",
       [ Alcotest.test_case "rbgp failover" `Quick test_rbgp_failover_network;
         Alcotest.test_case "hlp over network" `Quick test_hlp_over_network ]);
      ("control-models",
       [ Alcotest.test_case "centralized = distributed" `Quick
           test_centralized_equals_distributed ]);
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck_invariants) ]
