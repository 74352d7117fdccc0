open Dbgp_types
module Speaker = Dbgp_core.Speaker
module Ia = Dbgp_core.Ia
module Value = Dbgp_core.Value
module Network = Dbgp_netsim.Network
module Lookup = Dbgp_netsim.Lookup_service
module P = Dbgp_bgp.Policy
module Wiser = Dbgp_protocols.Wiser
module Pathlet = Dbgp_protocols.Pathlet
module Scion = Dbgp_protocols.Scion_like
module Miro = Dbgp_protocols.Miro
module Portal_io = Dbgp_protocols.Portal_io

let io_of = Harness.io_of
let add_as = Harness.add_as
let cust = Harness.cust

(* ------------------------------------------------------------------ *)
(* Figure 1 / Section 3.4: Wiser across a gulf                         *)
(* ------------------------------------------------------------------ *)

type wiser_result = {
  cost_seen : int option;
  chose_low_cost : bool;
  portal_seen : bool;
  cost_seen_bgp : int option;
  chose_low_cost_bgp : bool;
}

let wiser_prefix = Prefix.of_string "128.6.0.0/24"

(* D=1, E1=2 (cost 100), E2=3 (cost 10) form island W; G1=4, G2=5, G3=6
   are the gulf; S=10 is the upgraded source island.  The short path runs
   via E1/G1, the long cheap one via E2/G2/G3. *)
let run_wiser ~passthrough_gulf =
  let net = Network.create () in
  let island_w = Island_id.named "W" and island_b = Island_id.named "B" in
  let io = io_of net in
  let portal_w = Ipv4.of_string "172.16.0.1"
  and portal_b = Ipv4.of_string "172.16.0.2" in
  let wiser_at island portal cost =
    Wiser.create { Wiser.my_island = island; internal_cost = cost; portal; io }
  in
  let d = add_as net ~island:island_w 1 in
  let e1 = add_as net ~island:island_w 2 in
  let e2 = add_as net ~island:island_w 3 in
  let _g1 = add_as net ~passthrough:passthrough_gulf 4 in
  let _g2 = add_as net ~passthrough:passthrough_gulf 5 in
  let _g3 = add_as net ~passthrough:passthrough_gulf 6 in
  let s = add_as net ~island:island_b 10 in
  let instances =
    [ (d, wiser_at island_w portal_w 0);
      (e1, wiser_at island_w portal_w 100);
      (e2, wiser_at island_w portal_w 10);
      (s, wiser_at island_b portal_b 1) ]
  in
  List.iter
    (fun (sp, w) ->
      Speaker.add_module sp (Wiser.decision_module w);
      Speaker.set_active sp wiser_prefix Wiser.protocol)
    instances;
  cust net 1 2;
  cust net 1 3;
  cust net 2 4;
  cust net 4 10;
  cust net 3 5;
  cust net 5 6;
  cust net 6 10;
  Network.originate net (Asn.of_int 1)
    (Ia.originate ~prefix:wiser_prefix ~origin_asn:(Asn.of_int 1)
       ~next_hop:(Network.speaker_addr (Asn.of_int 1))
       ());
  ignore (Network.run net);
  match Speaker.best s wiser_prefix with
  | None -> (None, false, false)
  | Some chosen ->
    let ia = chosen.Speaker.candidate.Dbgp_core.Decision_module.ia in
    let via_e2 = List.mem (Asn.of_int 3) (Ia.asns_on_path ia) in
    let portal = Wiser.upstream_portal ~my_island:island_b ia in
    (Wiser.cost_of ia, via_e2, Option.is_some portal)

let wiser_across_gulf () =
  let cost_seen, chose_low_cost, portal_seen = run_wiser ~passthrough_gulf:true in
  let cost_seen_bgp, chose_low_cost_bgp, _ = run_wiser ~passthrough_gulf:false in
  { cost_seen; chose_low_cost; portal_seen; cost_seen_bgp; chose_low_cost_bgp }

(* ------------------------------------------------------------------ *)
(* Figure 8, Pathlet arm                                                *)
(* ------------------------------------------------------------------ *)

type pathlet_result = {
  expected : int;
  seen : int;
  seen_bgp : int;
  end_to_end : int;
}

let pathlet_prefix = Prefix.of_string "131.1.0.0/24"

(* Island A: A1=101 hosts the destination, borders A2=102 and A3=103.
   Gulf: G1=201, G2=202.  Island B: border B1=301, source S=302.

   One-hop pathlets inside island A (over routers named "ar..."):
     p1: ar2 -> arm        p2: arm -> deliver
     p3: ar2 -> ar1        p4: ar1 -> deliver
     p5: ar3 -> arx        p6: arx -> deliver
   A2 composes p1 o p2 into the two-hop pathlet P10 and advertises
   {P10, p3, p4}; A3 advertises {p5, p6}.  All five must reach S. *)
let run_pathlet ~passthrough_gulf =
  let net = Network.create () in
  let island_a = Island_id.named "A" and island_b = Island_id.named "B" in
  let deliver = Pathlet.Deliver pathlet_prefix in
  let p1 = Pathlet.make ~fid:1 [ Pathlet.Router "ar2"; Pathlet.Router "arm" ] in
  let p2 = Pathlet.make ~fid:2 [ Pathlet.Router "arm"; deliver ] in
  let p3 = Pathlet.make ~fid:3 [ Pathlet.Router "ar2"; Pathlet.Router "ar1" ] in
  let p4 = Pathlet.make ~fid:4 [ Pathlet.Router "ar1"; deliver ] in
  let p5 = Pathlet.make ~fid:5 [ Pathlet.Router "ar3"; Pathlet.Router "arx" ] in
  let p6 = Pathlet.make ~fid:6 [ Pathlet.Router "arx"; deliver ] in
  let p10 = Pathlet.compose ~fid:10 p1 p2 in
  let a1 = add_as net ~island:island_a 101 in
  let a2 = add_as net ~island:island_a 102 in
  let a3 = add_as net ~island:island_a 103 in
  let _g1 = add_as net ~passthrough:passthrough_gulf 201 in
  let _g2 = add_as net ~passthrough:passthrough_gulf 202 in
  let b1 = add_as net ~island:island_b 301 in
  let s = add_as net ~island:island_b 302 in
  let attach sp exported =
    Speaker.add_module sp
      (Pathlet.decision_module ~island:island_a ~exported:(fun () -> exported));
    Speaker.set_active sp pathlet_prefix Pathlet.protocol
  in
  attach a1 [];
  attach a2 [ p10; p3; p4 ];
  attach a3 [ p5; p6 ];
  (* Island B's border and source run Pathlet Routing too; they export
     nothing of their own for this prefix. *)
  List.iter
    (fun sp ->
      Speaker.add_module sp
        (Pathlet.decision_module ~island:island_b ~exported:(fun () -> []));
      Speaker.set_active sp pathlet_prefix Pathlet.protocol)
    [ b1; s ];
  cust net 101 102;
  cust net 101 103;
  cust net 102 201;
  cust net 201 301;
  cust net 103 202;
  cust net 202 301;
  cust net 301 302;
  Network.originate net (Asn.of_int 101)
    (Ia.originate ~prefix:pathlet_prefix ~origin_asn:(Asn.of_int 101)
       ~next_hop:(Network.speaker_addr (Asn.of_int 101))
       ());
  ignore (Network.run net);
  (* B1 is island B's border: its ingress translation module ingests
     pathlets from every IA it received, and island-internal
     dissemination carries them to S (modeled as a shared store). *)
  let translation =
    Pathlet.translation ~island:island_b ~origin_asn:(Asn.of_int 301)
      ~next_hop:(Network.speaker_addr (Asn.of_int 301))
  in
  let store = Pathlet.Store.create () in
  List.iter
    (fun (_, ia) ->
      match translation.Dbgp_core.Translation.ingress ia with
      | Some pathlets -> List.iter (Pathlet.Store.add store) pathlets
      | None -> ())
    (Speaker.candidates_for b1 pathlet_prefix);
  let seen = Pathlet.Store.size store in
  let end_to_end =
    List.length (Pathlet.Store.routes_to store ~from:"ar2" ~dest:pathlet_prefix)
  in
  (seen, end_to_end)

let pathlet_across_gulf () =
  let seen, end_to_end = run_pathlet ~passthrough_gulf:true in
  let seen_bgp, _ = run_pathlet ~passthrough_gulf:false in
  { expected = 5; seen; seen_bgp; end_to_end }

(* ------------------------------------------------------------------ *)
(* Figure 2: MIRO off-path discovery                                    *)
(* ------------------------------------------------------------------ *)

type miro_result = {
  discovered : bool;
  discovered_bgp : bool;
  negotiated : (string * Ipv4.t) option;
  tunnel_works : bool;
}

let miro_service_prefix = Prefix.of_string "173.82.2.0/24"

(* D=1 -> X=2 -> T=3 is the default path; M=4 hangs off X and sells
   alternate paths.  T must discover M's service although M is not on
   T's path to D. *)
let run_miro ~passthrough_gulf =
  let net = Network.create () in
  let island_m = Island_id.named "M" in
  let io = io_of net in
  let portal = Ipv4.of_string "172.16.1.1" in
  let tunnel_endpoint = Ipv4.of_string "173.82.2.1" in
  let miro =
    Miro.create
      { Miro.my_island = island_m;
        portal;
        offers =
          [ { Miro.dest = Prefix.of_string "131.9.0.0/24";
              via = "alt-1";
              price = 10;
              tunnel_endpoint } ] }
  in
  Lookup.register_handler (Network.lookup net) ~portal ~service:Miro.service
    (Miro.serve miro);
  let _d = add_as net 1 in
  let _x = add_as net ~passthrough:passthrough_gulf 2 in
  let t = add_as net 3 in
  let _m = add_as net ~island:island_m 4 in
  cust net 1 2;
  cust net 2 3;
  cust net 4 2;
  (* M originates its service prefix with the MIRO island descriptor. *)
  Network.originate net (Asn.of_int 4)
    (Miro.advertise miro
       (Ia.originate ~prefix:miro_service_prefix ~origin_asn:(Asn.of_int 4)
          ~next_hop:(Network.speaker_addr (Asn.of_int 4))
          ()));
  Network.originate net (Asn.of_int 1)
    (Ia.originate ~prefix:(Prefix.of_string "131.9.0.0/24")
       ~origin_asn:(Asn.of_int 1)
       ~next_hop:(Network.speaker_addr (Asn.of_int 1))
       ());
  ignore (Network.run net);
  match Speaker.best t miro_service_prefix with
  | None -> (false, None)
  | Some chosen ->
    let ia = chosen.Speaker.candidate.Dbgp_core.Decision_module.ia in
    ( match Miro.discover ia with
      | [] -> (false, None)
      | svc :: _ ->
        let deal =
          Miro.negotiate ~io ~portal:svc.Miro.portal_addr
            ~dest:(Prefix.of_string "131.9.0.0/24") ~budget:50
        in
        (true, deal) )

let miro_discovery () =
  let discovered, negotiated = run_miro ~passthrough_gulf:true in
  let discovered_bgp, _ = run_miro ~passthrough_gulf:false in
  let tunnel_works =
    match negotiated with
    | None -> false
    | Some (_, endpoint) ->
      (* Data plane: T tunnels toward the endpoint; M terminates it. *)
      let open Dbgp_dataplane in
      let engine = Engine.create () in
      let fwd asn = Forwarder.create ~me:(Asn.of_int asn) () in
      let ft = fwd 3 and fx = fwd 2 and fm = fwd 4 in
      Forwarder.set_ip_route ft miro_service_prefix
        (Forwarder.To_as (Asn.of_int 2));
      Forwarder.set_ip_route fx miro_service_prefix
        (Forwarder.To_as (Asn.of_int 4));
      Forwarder.add_local_addr fm endpoint;
      (* Inside M the decapsulated traffic enters the purchased alternate
         path; its continuation is M's business, modeled as local handoff. *)
      Forwarder.set_ip_route fm (Prefix.of_string "131.9.0.0/24")
        Forwarder.Local;
      List.iter (Engine.add engine) [ ft; fx; fm ];
      let pkt =
        Packet.make
          ~headers:
            [ Header.Tunnel_hdr { endpoint };
              Header.Ipv4_hdr
                { src = Network.speaker_addr (Asn.of_int 3);
                  dst = Prefix.network (Prefix.of_string "131.9.0.0/24") } ]
          ~payload:"hello" ()
      in
      ( match Engine.route engine ~from:(Asn.of_int 3) pkt with
        | Engine.Delivered { at; _ } -> Asn.equal at (Asn.of_int 4)
        | Engine.Dropped _ -> false )
  in
  { discovered; discovered_bgp; negotiated; tunnel_works }

(* ------------------------------------------------------------------ *)
(* Figure 3: SCION multipath across a gulf                              *)
(* ------------------------------------------------------------------ *)

type scion_result = {
  paths_seen : int;
  paths_seen_bgp : int;
  forwarded_on_extra : bool;
}

let scion_prefix = Prefix.of_string "131.5.0.0/24"

(* Island A (A1=1 origin, A2=2 border) exposes two within-island paths;
   G=3 is the gulf; island B (B1=4 border, S=5).  Path 1 = [arin; ard]
   is the redistributed one; path 2 = [arin; armid; ard] is the extra
   one BGP loses. *)
let scion_paths = [ [ "arin"; "ard" ]; [ "arin"; "armid"; "ard" ] ]

let run_scion ~passthrough_gulf =
  let net = Network.create () in
  let island_a = Island_id.named "A" and island_b = Island_id.named "B" in
  let a1 = add_as net ~island:island_a 1 in
  let a2 = add_as net ~island:island_a 2 in
  let _g = add_as net ~passthrough:passthrough_gulf 3 in
  let b1 = add_as net ~island:island_b 4 in
  let s = add_as net ~island:island_b 5 in
  let attach sp island paths =
    Speaker.add_module sp
      (Scion.decision_module ~island ~exported:(fun () -> paths));
    Speaker.set_active sp scion_prefix Scion.protocol
  in
  attach a1 island_a [];
  attach a2 island_a scion_paths;
  attach b1 island_b [];
  attach s island_b [];
  cust net 1 2;
  cust net 2 3;
  cust net 3 4;
  cust net 4 5;
  Network.originate net (Asn.of_int 1)
    (Ia.originate ~prefix:scion_prefix ~origin_asn:(Asn.of_int 1)
       ~next_hop:(Network.speaker_addr (Asn.of_int 1))
       ());
  ignore (Network.run net);
  match Speaker.best s scion_prefix with
  | None -> 0
  | Some chosen ->
    List.length
      (Scion.extract ~island:island_a
         chosen.Speaker.candidate.Dbgp_core.Decision_module.ia)

(* ------------------------------------------------------------------ *)
(* The divergence lab: known-divergent gadget topologies                *)
(* ------------------------------------------------------------------ *)

(* Every gadget advertises the same prefix so the stability report's
   per-prefix columns line up across scenarios. *)
let gadget_prefix = Prefix.of_string "66.6.0.0/24"

let originate_gadget net asn_int =
  let asn = Asn.of_int asn_int in
  Network.originate net asn
    (Ia.originate ~prefix:gadget_prefix ~origin_asn:asn
       ~next_hop:(Network.speaker_addr asn) ())

(* BAD GADGET (Griffin/Shepherd/Wilfong): origin d=10 in the middle of
   a 3-ring; each ring AS prefers the route through its clockwise
   neighbor over its own direct route.  The preference cycle is a
   dispute wheel with no stable assignment at all, so the simulation
   can never quiesce.  [flip] reverses every preference, yielding the
   wheel-free (provably safe) GOOD GADGET control on the identical
   topology.

   Relationships: d is every ring member's customer (so d-learned routes
   export everywhere under valley-free); ring links are peer-peer, which
   makes a ring AS silently withdraw its direct route from its
   counter-clockwise neighbor whenever it switches to the ring route —
   exactly the coupling the gadget needs. *)
let ring_gadget ~flip () =
  let net = Network.create () in
  let d = 10 and ring = [ 1; 2; 3 ] in
  ignore (add_as net d);
  List.iter (fun i -> ignore (add_as net i)) ring;
  List.iter (fun i -> cust net d i) ring;
  let peer_link a b =
    Network.link net ~a:(Asn.of_int a) ~b:(Asn.of_int b) ~b_is:P.To_peer ()
  in
  peer_link 1 2;
  peer_link 2 3;
  peer_link 3 1;
  List.iter2
    (fun i next ->
      let ranked =
        if flip then [ [ d ]; [ next; d ] ] else [ [ next; d ]; [ d ] ]
      in
      let sp = Network.speaker net (Asn.of_int i) in
      Speaker.add_module sp (Stability.spvp_module ~ranked);
      Speaker.set_active sp gadget_prefix Stability.spvp_protocol)
    ring [ 2; 3; 1 ];
  originate_gadget net d;
  net

let bad_gadget () = ring_gadget ~flip:false ()
let good_gadget () = ring_gadget ~flip:true ()

let ring_spec ~flip =
  let d = 10 in
  { Stability.origin = d;
    prefs =
      List.map2
        (fun i next ->
          ( i,
            if flip then [ [ i; d ]; [ i; next; d ] ]
            else [ [ i; next; d ]; [ i; d ] ] ))
        [ 1; 2; 3 ] [ 2; 3; 1 ] }

let bad_gadget_spec = ring_spec ~flip:false
let good_gadget_spec = ring_spec ~flip:true

(* MED oscillation (RFC 3345 Type I churn): cluster routers A=11 and
   B=12 act as one AS with partial visibility (each advertises only its
   best to the other).  AS 2 multihomes to both and steers with MEDs
   (10 toward A, 20 toward B); AS 3 single-homes to B with no MED.
   B's IGP prefers its own AS2 exit to its AS3 exit, but A's MED-10
   route eliminates B's own AS2 route from the MED comparison — and
   once B falls back to AS3, A prefers that route and withdraws the
   MED-10 one.  No joint state is a fixed point; the cluster churns
   forever. *)
let med_oscillation () =
  let net = Network.create () in
  let origin = 9 and as2 = 2 and as3 = 3 and ra = 11 and rb = 12 in
  List.iter (fun i -> ignore (add_as net i)) [ origin; as2; as3; ra; rb ];
  cust net origin as2;
  cust net origin as3;
  let set_med m ia =
    Some
      (Ia.set_path_descriptor ~owners:[ Protocol_id.bgp ] ~field:Ia.field_med
         (Value.Int m) ia)
  in
  (* AS2 is a customer of both cluster routers and tags each session
     with a different MED; AS3 is B's customer, untagged. *)
  Network.link net ~a:(Asn.of_int as2) ~b:(Asn.of_int ra)
    ~a_export:(set_med 10) ~b_is:P.To_provider ();
  Network.link net ~a:(Asn.of_int as2) ~b:(Asn.of_int rb)
    ~a_export:(set_med 20) ~b_is:P.To_provider ();
  cust net as3 rb;
  (* Inside the cluster B is A's customer, so both directions export
     freely under valley-free. *)
  Network.link net ~a:(Asn.of_int ra) ~b:(Asn.of_int rb) ~b_is:P.To_customer ();
  let cluster = [ ra; rb ] in
  let attach r igp =
    let sp = Network.speaker net (Asn.of_int r) in
    Speaker.add_module sp (Stability.med_module ~me:r ~cluster ~igp);
    Speaker.set_active sp gadget_prefix Stability.med_protocol
  in
  (* (exit router, exit AS) -> IGP cost, per cluster router. *)
  attach ra [ ((ra, as2), 5); ((rb, as3), 1); ((rb, as2), 1) ];
  attach rb [ ((rb, as2), 1); ((rb, as3), 2); ((ra, as2), 10) ];
  originate_gadget net origin;
  net

(* The MED preference relation is partial (IGP order between exit ASes
   is not monotone under candidate removal); this spec is the linear
   extension the oscillation actually walks, enough for the static
   detector to expose the wheel between the two cluster routers. *)
let med_oscillation_spec =
  { Stability.origin = 9;
    prefs =
      [ (11, [ [ 11; 12; 3; 9 ]; [ 11; 2; 9 ]; [ 11; 12; 2; 9 ] ]);
        (12, [ [ 12; 3; 9 ]; [ 12; 11; 2; 9 ]; [ 12; 2; 9 ] ]) ] }

(* Wiser cost-feedback loop across gossip islands: two load-sensitive
   Wiser egresses (islands W1/W2, equal static cost) reach source S
   through disjoint plain-BGP gulfs.  Every gossip tick S posts the
   demand it currently routes through an egress at that egress's portal
   (out-of-band, via the lookup service); the loaded egress's advertised
   cost jumps by demand * sensitivity, S flips to the other egress, and
   the demand — hence the cost — follows it.  The control loop closes
   through the gossip channel, so no amount of BGP-message analysis
   shows a cause for the churn. *)
let wiser_feedback_period = 5.0

let wiser_feedback () =
  let net = Network.create () in
  let io = io_of net in
  let d = 1 and e1 = 2 and e2 = 3 and g1 = 4 and g2 = 5 and s = 10 in
  let island_w1 = Island_id.named "W1"
  and island_w2 = Island_id.named "W2"
  and island_b = Island_id.named "B" in
  let portal1 = Ipv4.of_string "172.16.2.1"
  and portal2 = Ipv4.of_string "172.16.2.2"
  and portal_b = Ipv4.of_string "172.16.2.9" in
  ignore (add_as net d);
  let sp_e1 = add_as net ~island:island_w1 e1 in
  let sp_e2 = add_as net ~island:island_w2 e2 in
  ignore (add_as net g1);
  ignore (add_as net g2);
  let sp_s = add_as net ~island:island_b s in
  let wiser_at island portal cost =
    Wiser.create { Wiser.my_island = island; internal_cost = cost; portal; io }
  in
  let w_e1 = wiser_at island_w1 portal1 10 in
  let w_e2 = wiser_at island_w2 portal2 10 in
  let w_s = wiser_at island_b portal_b 0 in
  Wiser.set_demand_sensitivity w_e1 25;
  Wiser.set_demand_sensitivity w_e2 25;
  List.iter
    (fun (sp, w) ->
      Speaker.add_module sp (Wiser.decision_module w);
      Speaker.set_active sp gadget_prefix Wiser.protocol)
    [ (sp_e1, w_e1); (sp_e2, w_e2); (sp_s, w_s) ];
  cust net d e1;
  cust net d e2;
  cust net e1 g1;
  cust net e2 g2;
  cust net g1 s;
  cust net g2 s;
  originate_gadget net d;
  (* The gossip tick: S publishes where its demand currently flows; each
     egress polls its portal and re-advertises when its effective cost
     changed.  Self-rescheduling, so the event queue never drains — the
     stability budget bounds the run. *)
  let q = Network.queue net in
  let egresses =
    [ (Asn.of_int e1, w_e1, portal1); (Asn.of_int e2, w_e2, portal2) ]
  in
  let rec tick () =
    let used =
      match Speaker.best sp_s gadget_prefix with
      | None -> None
      | Some chosen ->
        Wiser.upstream_portal ~my_island:island_b
          chosen.Speaker.candidate.Dbgp_core.Decision_module.ia
    in
    List.iter
      (fun (_, w, portal) ->
        let demand =
          match used with
          | Some p when Ipv4.compare p portal = 0 -> 1
          | _ -> 0
        in
        Wiser.post_demand w ~portal demand)
      egresses;
    List.iter
      (fun (asn, w, _) ->
        if Wiser.poll_demand w then begin
          (* Re-registering the module bumps the speaker's build
             generation, so its cached contribution list picks up the
             new module; the reevaluation then rebuilds the outgoing IA
             with the new cost. *)
          Speaker.add_module (Network.speaker net asn) (Wiser.decision_module w);
          Network.reevaluate net asn gadget_prefix
        end)
      egresses;
    Dbgp_netsim.Event_queue.schedule q ~delay:wiser_feedback_period tick
  in
  Dbgp_netsim.Event_queue.schedule q ~delay:wiser_feedback_period tick;
  net

(* Converged controls: Network-level equivalents of the golden
   differential workloads (relay-line and the chaos BRITE-30 topology)
   plus GOOD GADGET above.  The stability report must classify all of
   them as converged — the detector's false-positive guard. *)
let relay_line () =
  let net = Network.create () in
  let n = 6 in
  for i = 1 to n do
    ignore (add_as net i)
  done;
  for i = 1 to n - 1 do
    cust net i (i + 1)
  done;
  originate_gadget net 1;
  net

let brite_control ~seed ~ases () =
  let g =
    Dbgp_topology.Brite.generate (Prng.create seed)
      { Dbgp_topology.Brite.default with Dbgp_topology.Brite.n = ases }
  in
  let net = Convergence.network_of_graph g in
  let asn = Asn.of_int 1 in
  Network.originate net asn
    (Ia.originate ~prefix:gadget_prefix ~origin_asn:asn
       ~next_hop:(Network.speaker_addr asn) ());
  net

let divergence_cases ?(seed = 42) ?(control_ases = 30) () =
  [ { Stability.name = "bad-gadget";
      prefix = gadget_prefix;
      build = bad_gadget;
      spec = Some bad_gadget_spec;
      expect_divergence = true };
    { Stability.name = "med-oscillation";
      prefix = gadget_prefix;
      build = med_oscillation;
      spec = Some med_oscillation_spec;
      expect_divergence = true };
    { Stability.name = "wiser-feedback";
      prefix = gadget_prefix;
      build = wiser_feedback;
      spec = None;
      expect_divergence = true };
    { Stability.name = "good-gadget";
      prefix = gadget_prefix;
      build = good_gadget;
      spec = Some good_gadget_spec;
      expect_divergence = false };
    { Stability.name = "relay-line";
      prefix = gadget_prefix;
      build = relay_line;
      spec = None;
      expect_divergence = false };
    { Stability.name = "brite-30";
      prefix = gadget_prefix;
      build = brite_control ~seed ~ases:control_ases;
      spec = None;
      expect_divergence = false } ]

let scion_multipath () =
  let paths_seen = run_scion ~passthrough_gulf:true in
  let paths_seen_bgp = run_scion ~passthrough_gulf:false in
  let forwarded_on_extra =
    (* Drive the extra (three-hop) path through the data plane. *)
    let open Dbgp_dataplane in
    let engine = Engine.create () in
    let fwd asn = Forwarder.create ~me:(Asn.of_int asn) () in
    let fa1 = fwd 1 and fa2 = fwd 2 and fg = fwd 3 and fb1 = fwd 4 and fs = fwd 5 in
    (* IPv4 route toward island A's ingress address for gulf crossing. *)
    let ingress_addr = Network.speaker_addr (Asn.of_int 2) in
    Forwarder.set_ip_route fs scion_prefix (Forwarder.To_as (Asn.of_int 4));
    Forwarder.set_ip_route fb1 scion_prefix (Forwarder.To_as (Asn.of_int 3));
    Forwarder.set_ip_route fg scion_prefix (Forwarder.To_as (Asn.of_int 2));
    Forwarder.set_ip_route fs (Prefix.make ingress_addr 32)
      (Forwarder.To_as (Asn.of_int 4));
    Forwarder.set_ip_route fb1 (Prefix.make ingress_addr 32)
      (Forwarder.To_as (Asn.of_int 3));
    Forwarder.set_ip_route fg (Prefix.make ingress_addr 32)
      (Forwarder.To_as (Asn.of_int 2));
    Forwarder.add_local_addr fa2 ingress_addr;
    Forwarder.claim_router fa2 ~router:"arin";
    Forwarder.set_router_port fa2 ~router:"armid" (Forwarder.To_as (Asn.of_int 1));
    Forwarder.claim_router fa1 ~router:"armid";
    Forwarder.claim_router fa1 ~router:"ard";
    Forwarder.set_ip_route fa1 scion_prefix Forwarder.Local;
    List.iter (Engine.add engine) [ fa1; fa2; fg; fb1; fs ];
    let pkt =
      Packet.make
        ~headers:
          [ Header.Tunnel_hdr { endpoint = ingress_addr };
            Header.Scion_hdr { path = [ "arin"; "armid"; "ard" ]; pos = 0 };
            Header.Ipv4_hdr
              { src = Network.speaker_addr (Asn.of_int 5);
                dst = Prefix.network scion_prefix } ]
        ~payload:"data" ()
    in
    match Engine.route engine ~from:(Asn.of_int 5) pkt with
    | Engine.Delivered { at; path } ->
      Asn.equal at (Asn.of_int 1)
      && List.exists (Asn.equal (Asn.of_int 2)) path
    | Engine.Dropped _ -> false
  in
  { paths_seen; paths_seen_bgp; forwarded_on_extra }
