open Dbgp_types
module G = Dbgp_topology.As_graph
module Brite = Dbgp_topology.Brite
module Caida = Dbgp_topology.Caida
module Routing = Dbgp_topology.Routing

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------- As_graph ------------------------- *)

let test_graph_basics () =
  let g = G.create 4 in
  G.add_customer_provider g ~customer:0 ~provider:1;
  G.add_peering g 1 2;
  G.add_customer_provider g ~customer:3 ~provider:1;
  check_int "size" 4 (G.size g);
  check_int "edges" 3 (G.edge_count g);
  check "0 sees 1 as provider" true (G.view_of g ~me:0 ~neighbor:1 = Some G.Provider_of_me);
  check "1 sees 0 as customer" true (G.view_of g ~me:1 ~neighbor:0 = Some G.Customer_of_me);
  check "peering symmetric" true
    (G.view_of g ~me:1 ~neighbor:2 = Some G.Peer_of_me
    && G.view_of g ~me:2 ~neighbor:1 = Some G.Peer_of_me);
  check "unknown" true (G.view_of g ~me:0 ~neighbor:2 = None);
  check_int "providers of 0" 1 (List.length (G.providers g 0));
  check_int "customers of 1" 2 (List.length (G.customers g 1));
  check_int "peers of 1" 1 (List.length (G.peers g 1))

let test_graph_errors () =
  let g = G.create 2 in
  Alcotest.check_raises "self-link" (Invalid_argument "As_graph: self-link")
    (fun () -> G.add_peering g 1 1);
  Alcotest.check_raises "bad id" (Invalid_argument "As_graph: bad AS id 5")
    (fun () -> G.add_peering g 0 5)

let test_graph_relationship_replace () =
  let g = G.create 2 in
  G.add_customer_provider g ~customer:0 ~provider:1;
  G.add_peering g 0 1;
  check "replaced by peering" true (G.view_of g ~me:0 ~neighbor:1 = Some G.Peer_of_me);
  check_int "still one edge" 1 (G.edge_count g)

let test_connectivity_stubs () =
  let g = G.create 4 in
  G.add_customer_provider g ~customer:0 ~provider:1;
  check "disconnected" false (G.is_connected g);
  G.add_customer_provider g ~customer:2 ~provider:1;
  G.add_customer_provider g ~customer:3 ~provider:2;
  check "connected" true (G.is_connected g);
  check "stubs are customer-less" true (List.sort compare (G.stubs g) = [ 0; 3 ])

(* ------------------------- Brite ------------------------- *)

let test_brite_connected_deterministic () =
  let params = { Brite.default with Brite.n = 200 } in
  let g1 = Brite.generate (Prng.create 1) params in
  let g2 = Brite.generate (Prng.create 1) params in
  check "connected" true (G.is_connected g1);
  check_int "same edge count (deterministic)" (G.edge_count g1) (G.edge_count g2);
  check "edges >= n-1" true (G.edge_count g1 >= 199);
  let g3 = Brite.generate (Prng.create 2) params in
  check "different seed differs" true (G.edge_count g1 <> G.edge_count g3 ||
    G.fold_edges (fun a b _ acc -> acc + (a * 31) + b) g1 0
    <> G.fold_edges (fun a b _ acc -> acc + (a * 31) + b) g3 0)

let test_brite_provider_acyclic () =
  let g = Brite.generate (Prng.create 7) { Brite.default with Brite.n = 300 } in
  (* Kahn's algorithm over customer->provider edges. *)
  let n = G.size g in
  let indeg = Array.make n 0 in
  for v = 0 to n - 1 do
    List.iter (fun _ -> indeg.(v) <- indeg.(v) + 1) (G.customers g v)
  done;
  let queue = Queue.create () in
  for v = 0 to n - 1 do
    if indeg.(v) = 0 then Queue.add v queue
  done;
  let seen = ref 0 in
  while not (Queue.is_empty queue) do
    let v = Queue.pop queue in
    incr seen;
    List.iter
      (fun p ->
        indeg.(p) <- indeg.(p) - 1;
        if indeg.(p) = 0 then Queue.add p queue)
      (G.providers g v)
  done;
  check_int "provider DAG is acyclic" n !seen

(* Every AS's neighbors with their relationships: the generator's edges
   and their orientation. *)
let view_tag = function G.Provider_of_me -> "p" | G.Customer_of_me -> "c" | G.Peer_of_me -> "="

let adjacency_digest g =
  let b = Buffer.create 4096 in
  for v = 0 to G.size g - 1 do
    Buffer.add_string b (string_of_int v);
    Buffer.add_char b ':';
    List.iter
      (fun (u, w) -> Buffer.add_string b (Printf.sprintf "%d%s," u (view_tag w)))
      (G.neighbors g v);
    Buffer.add_char b ';'
  done;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* The edges in [fold_edges] order, which follows the order the
   generator inserted them in — and the hash seed. *)
let edge_order_digest g =
  let b = Buffer.create 4096 in
  G.fold_edges (fun a c w () -> Buffer.add_string b (Printf.sprintf "%d-%d%s," a c (view_tag w))) g ();
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Pinned graphs: a faster generator must draw the same edges and
   insert them in the same order (checked under the default hash seed
   only). *)
let test_brite_pinned () =
  List.iter
    (fun (seed, n, m, adjacency, order) ->
      let g = Brite.generate (Prng.create seed) { Brite.default with Brite.n; m } in
      let case = Printf.sprintf "seed %d n %d m %d" seed n m in
      Alcotest.(check string) (case ^ " edges") adjacency (adjacency_digest g);
      if not (Hashtbl.is_randomized ()) then
        Alcotest.(check string) (case ^ " edge order") order (edge_order_digest g))
    [ (1, 2, 1, "cafaf02e8b2b0e20d554d15e578c9b7d", "2046c96cfc02723109b3759553b6d9c9");
      (1, 100, 2, "ac15ff4f4855a3fb4c784eaa611a8f1b", "fb02479e377420f9bfa1c8a202d92bd4");
      (7, 300, 3, "28f83cfeac50577dd245ffbed0ce4c0b", "20ecb556487363b7d87bdaf8e9ec402b");
      (42, 1000, 2, "a78359d7fc91007bd50697d443dcb012", "49066083368ec2e050dde7337e2da274");
      (5, 10, 3, "73177c5cc0521ca6dfecdc34549387fa", "344bb69672e40c446b2e94a0b8e146a8") ]

let test_brite_params_validated () =
  Alcotest.check_raises "n too small"
    (Invalid_argument "Brite.generate: need at least 2 ASes") (fun () ->
      ignore (Brite.generate (Prng.create 0) { Brite.default with Brite.n = 1 }));
  Alcotest.check_raises "bad alpha" (Invalid_argument "Brite.generate: bad alpha")
    (fun () ->
      ignore (Brite.generate (Prng.create 0) { Brite.default with Brite.alpha = 0. }))

(* ------------------------- Routing ------------------------- *)

(* A diamond: 0 -> {1, 2} -> 3, plus a long chain 0 -> 4 -> 5 -> 3. *)
let diamond () =
  let g = G.create 6 in
  G.add_customer_provider g ~customer:0 ~provider:1;
  G.add_customer_provider g ~customer:0 ~provider:2;
  G.add_customer_provider g ~customer:1 ~provider:3;
  G.add_customer_provider g ~customer:2 ~provider:3;
  G.add_customer_provider g ~customer:0 ~provider:4;
  G.add_customer_provider g ~customer:4 ~provider:5;
  G.add_customer_provider g ~customer:5 ~provider:3;
  g

let no_extend ~at:_ ~from:_ () = Some ()

let test_routing_shortest () =
  let g = diamond () in
  let routes =
    Routing.compute g ~dest:0 ~origin:() ~extend:no_extend
      ~prefer:Routing.shortest_path_prefer
  in
  ( match routes.(3) with
    | None -> Alcotest.fail "3 should reach 0"
    | Some r ->
      check_int "path length 3" 3 (List.length r.Routing.path);
      check "via 1 (lowest next hop)" true (r.Routing.path = [ 3; 1; 0 ]) );
  match routes.(5) with
  | None -> Alcotest.fail "5 should reach 0"
  | Some r -> check "chain path" true (r.Routing.path = [ 5; 4; 0 ])

let test_routing_valley_free_export () =
  (* 1 <- 0 -> 2 with 0 the customer of both: 1 must not reach dest 2
     through 0 (customer does not transit its providers). *)
  let g = G.create 3 in
  G.add_customer_provider g ~customer:0 ~provider:1;
  G.add_customer_provider g ~customer:0 ~provider:2;
  let routes =
    Routing.compute g ~dest:2 ~origin:() ~extend:no_extend
      ~prefer:Routing.shortest_path_prefer
  in
  check "0 reaches its provider" true (routes.(0) <> None);
  check "1 cannot transit customer 0" true (routes.(1) = None)

let test_routing_peer_no_transit () =
  (* dest 0 -- peer 1 -- peer 2: peer routes are not re-exported to peers. *)
  let g = G.create 3 in
  G.add_peering g 0 1;
  G.add_peering g 1 2;
  let routes =
    Routing.compute g ~dest:0 ~origin:() ~extend:no_extend
      ~prefer:Routing.shortest_path_prefer
  in
  check "direct peer reaches" true (routes.(1) <> None);
  check "two peer hops blocked" true (routes.(2) = None)

let test_routing_peer_to_customer () =
  (* dest 0 -- peer 1, customer 2 of 1: 1 exports its peer route down. *)
  let g = G.create 3 in
  G.add_peering g 0 1;
  G.add_customer_provider g ~customer:2 ~provider:1;
  let routes =
    Routing.compute g ~dest:0 ~origin:() ~extend:no_extend
      ~prefer:Routing.shortest_path_prefer
  in
  check "customer hears peer route" true (routes.(2) <> None)

let test_routing_extend_reject () =
  let g = diamond () in
  (* Reject anything through AS 1; path must go via 2. *)
  let extend ~at ~from:_ () = if at = 1 then None else Some () in
  let routes =
    Routing.compute g ~dest:0 ~origin:() ~extend
      ~prefer:Routing.shortest_path_prefer
  in
  match routes.(3) with
  | None -> Alcotest.fail "3 should still reach 0"
  | Some r -> check "avoids 1" true (not (List.mem 1 r.Routing.path))

let test_routing_metric_payload () =
  let g = diamond () in
  (* Count hops in the payload; prefer higher (longer paths).  The fixed
     point must stay internally consistent: payload = hops, loop-free,
     and at least one AS ends up on a non-shortest path. *)
  let extend ~at:_ ~from:_ d = Some (d + 1) in
  let prefer ~at:_ a b = Int.compare a.Routing.payload b.Routing.payload in
  let routes = Routing.compute g ~dest:0 ~origin:0 ~extend ~prefer in
  Array.iter
    (function
      | None -> ()
      | Some r ->
        check_int "payload tracks hops" (List.length r.Routing.path - 1) r.Routing.payload;
        check "loop free" true
          (List.length (List.sort_uniq compare r.Routing.path) = List.length r.Routing.path))
    routes;
  let shortest =
    Routing.compute g ~dest:0 ~origin:() ~extend:no_extend
      ~prefer:Routing.shortest_path_prefer
  in
  let stretched =
    Array.exists2
      (fun a b ->
        match (a, b) with
        | Some x, Some y -> List.length x.Routing.path > List.length y.Routing.path
        | _ -> false)
      routes shortest
  in
  check "some AS picked a longer path" true stretched

let test_is_valley_free () =
  let g = diamond () in
  check "uphill path ok" true (Routing.is_valley_free g [ 0; 1; 3 ]);
  check "up-down ok" true (Routing.is_valley_free g [ 1; 3; 2 ]);
  check "valley rejected" false (Routing.is_valley_free g [ 1; 0; 2 ]);
  check "non-edge rejected" false (Routing.is_valley_free g [ 0; 3 ])

let test_routing_exportable_rules () =
  check "origin to provider" true (Routing.exportable Routing.Origin G.Provider_of_me);
  check "customer route to peer" true
    (Routing.exportable Routing.From_customer G.Peer_of_me);
  check "peer route to provider blocked" false
    (Routing.exportable Routing.From_peer G.Provider_of_me);
  check "provider route to customer ok" true
    (Routing.exportable Routing.From_provider G.Customer_of_me);
  check "provider route to peer blocked" false
    (Routing.exportable Routing.From_provider G.Peer_of_me)

(* Property: on generated topologies every computed route is valley-free
   and loop-free. *)
let qcheck =
  let open QCheck in
  [ Test.make ~name:"computed routes are valley-free and loop-free" ~count:20
      (int_bound 1000)
      (fun seed ->
        let g =
          Brite.generate (Prng.create seed) { Brite.default with Brite.n = 60 }
        in
        let routes =
          Routing.compute g ~dest:(seed mod 60) ~origin:() ~extend:no_extend
            ~prefer:Routing.shortest_path_prefer
        in
        Array.for_all
          (function
            | None -> true
            | Some r ->
              let path = r.Routing.path in
              Routing.is_valley_free g path
              && List.length (List.sort_uniq compare path) = List.length path)
          routes);
    Test.make ~name:"destination's neighbors always reach it" ~count:20
      (int_bound 1000)
      (fun seed ->
        (* Valley-freeness can legitimately disconnect distant ASes, but a
           direct neighbor always hears the origin's advertisement. *)
        let g =
          Brite.generate (Prng.create seed) { Brite.default with Brite.n = 40 }
        in
        let dest = seed mod 40 in
        let routes =
          Routing.compute g ~dest ~origin:() ~extend:no_extend
            ~prefer:Routing.classful_prefer
        in
        List.for_all
          (fun (u, _) -> Option.is_some routes.(u))
          (Dbgp_topology.As_graph.neighbors g dest)) ]

(* ------------------------- Caida ------------------------- *)

let test_caida_connected_deterministic () =
  let params = { Caida.default with Caida.n = 1_000 } in
  let g1 = Caida.generate (Prng.create 1) params in
  let g2 = Caida.generate (Prng.create 1) params in
  check "connected" true (G.is_connected g1);
  check_int "deterministic" (G.edge_count g1) (G.edge_count g2);
  check "another seed differs" true
    (G.edge_count (Caida.generate (Prng.create 9) params) <> G.edge_count g1
    || G.degree (Caida.generate (Prng.create 9) params) 0 <> G.degree g1 0)

let test_caida_shape () =
  let params = { Caida.default with Caida.n = 1_000 } in
  let g = Caida.generate (Prng.create 7) params in
  (* The tier-1 core is a fully peered clique... *)
  for a = 0 to params.Caida.tier1 - 1 do
    for b = a + 1 to params.Caida.tier1 - 1 do
      check "core fully peered" true
        (G.view_of g ~me:a ~neighbor:b = Some G.Peer_of_me)
    done
  done;
  (* ...transit is acyclic because providers always have earlier ids... *)
  check "provider orientation acyclic" true
    (List.for_all
       (fun v -> List.for_all (fun p -> p < v) (G.providers g v))
       (List.init (G.size g) Fun.id));
  (* ...and preferential attachment yields a heavy power-law tail: a few
     hubs with enormous degree over a mass of single-homed stubs. *)
  let degrees =
    List.sort compare (List.init (G.size g) (fun v -> G.degree g v))
  in
  let max_deg = List.nth degrees (List.length degrees - 1) in
  let median = List.nth degrees (List.length degrees / 2) in
  check "heavy tail" true (max_deg >= 20 * median);
  check "mostly low-degree edge" true (median <= 3)

let test_caida_params_validated () =
  let gen p = ignore (Caida.generate (Prng.create 1) p) in
  let raises p =
    match gen p with exception Invalid_argument _ -> true | () -> false
  in
  check "n too small" true (raises { Caida.default with Caida.n = 1 });
  check "bad tier1" true
    (raises { Caida.default with Caida.n = 10; tier1 = 0 });
  check "bad multihome" true
    (raises { Caida.default with Caida.n = 10; multihome = 1.0 });
  check "bad peering" true
    (raises { Caida.default with Caida.n = 10; peering = -0.1 })

let test_caida_serial1 () =
  let text =
    "# comment line\n\
     701|7018|0\n\
     701|64500|-1\n\
     7018|64501|-1\n\
     \n\
     64500|64501|0\n"
  in
  let g, asns = Caida.parse_serial1 text in
  check_int "four ASes" 4 (G.size g);
  check "dense ids in first-appearance order" true
    (asns = [| 701; 7018; 64500; 64501 |]);
  check "transit orientation" true
    (G.view_of g ~me:2 ~neighbor:0 = Some G.Provider_of_me
    && G.view_of g ~me:0 ~neighbor:2 = Some G.Customer_of_me);
  check "peering" true
    (G.view_of g ~me:0 ~neighbor:1 = Some G.Peer_of_me
    && G.view_of g ~me:2 ~neighbor:3 = Some G.Peer_of_me);
  check "malformed line reports its number" true
    (match Caida.parse_serial1 "701|7018|0\n701|oops|-1\n" with
    | exception Invalid_argument m ->
      (* the bad line is line 2 *)
      let has s sub =
        let n = String.length sub in
        let rec go i =
          i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
        in
        go 0
      in
      has m "line 2"
    | _ -> false);
  check "bad relationship rejected" true
    (match Caida.parse_serial1 "701|7018|7\n1|2|0\n" with
    | exception Invalid_argument _ -> true
    | _ -> false)

let () =
  Alcotest.run "topology"
    [ ("as-graph",
       [ Alcotest.test_case "basics" `Quick test_graph_basics;
         Alcotest.test_case "errors" `Quick test_graph_errors;
         Alcotest.test_case "relationship replace" `Quick test_graph_relationship_replace;
         Alcotest.test_case "connectivity/stubs" `Quick test_connectivity_stubs ]);
      ("brite",
       [ Alcotest.test_case "connected+deterministic" `Quick test_brite_connected_deterministic;
         Alcotest.test_case "provider DAG" `Quick test_brite_provider_acyclic;
         Alcotest.test_case "validation" `Quick test_brite_params_validated;
         Alcotest.test_case "pinned edge lists" `Quick test_brite_pinned ]);
      ("caida",
       [ Alcotest.test_case "connected+deterministic" `Quick
           test_caida_connected_deterministic;
         Alcotest.test_case "clique, DAG, power-law" `Quick test_caida_shape;
         Alcotest.test_case "validation" `Quick test_caida_params_validated;
         Alcotest.test_case "serial-1 parser" `Quick test_caida_serial1 ]);
      ("routing",
       [ Alcotest.test_case "shortest" `Quick test_routing_shortest;
         Alcotest.test_case "no customer transit" `Quick test_routing_valley_free_export;
         Alcotest.test_case "no peer transit" `Quick test_routing_peer_no_transit;
         Alcotest.test_case "peer to customer" `Quick test_routing_peer_to_customer;
         Alcotest.test_case "extend can reject" `Quick test_routing_extend_reject;
         Alcotest.test_case "metric payload" `Quick test_routing_metric_payload;
         Alcotest.test_case "valley-free predicate" `Quick test_is_valley_free;
         Alcotest.test_case "export rules" `Quick test_routing_exportable_rules ]);
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck) ]
