open Dbgp_types
module Speaker = Dbgp_core.Speaker
module Network = Dbgp_netsim.Network
module Lookup = Dbgp_netsim.Lookup_service
module Forwarder = Dbgp_dataplane.Forwarder

let add_as net ?island ?(passthrough = true) asn_int =
  let asn = Asn.of_int asn_int in
  let s =
    Speaker.create
      (Speaker.config ?island ~passthrough ~asn ~addr:(Network.speaker_addr asn)
         ())
  in
  Network.add_speaker net s;
  s

let relationship = function
  | Dbgp_topology.As_graph.Customer_of_me -> Dbgp_bgp.Policy.To_customer
  | Provider_of_me -> Dbgp_bgp.Policy.To_provider
  | Peer_of_me -> Dbgp_bgp.Policy.To_peer

let cust net a b =
  Network.link net ~a:(Asn.of_int a) ~b:(Asn.of_int b)
    ~b_is:Dbgp_bgp.Policy.To_provider ()

let forwarder s =
  let f = Forwarder.create ~me:(Speaker.asn s) () in
  List.iter
    (fun (p, (chosen : Speaker.chosen)) ->
      Forwarder.set_ip_route f p
        ( match chosen.candidate.from_peer with
          | Some nbr -> Forwarder.To_as nbr.Dbgp_core.Peer.asn
          | None -> Forwarder.Local ))
    (Speaker.best_routes s);
  f

let io_of net =
  let lookup = Network.lookup net in
  { Dbgp_protocols.Portal_io.post =
      (fun ~portal ~service ~key v -> Lookup.post lookup ~portal ~service ~key v);
    fetch = (fun ~portal ~service ~key -> Lookup.fetch lookup ~portal ~service ~key);
    rpc = (fun ~portal ~service req -> Lookup.rpc lookup ~portal ~service req) }
