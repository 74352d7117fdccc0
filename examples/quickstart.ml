(* Quickstart: build a four-AS Internet, originate a prefix, watch the
   integrated advertisement travel, and forward a packet along the
   resulting routes.

     dune exec examples/quickstart.exe

   Topology (arrows = advertisement flow, customer to provider):

     AS 1 (origin) -> AS 2 -> AS 3 -> AS 4                              *)

open Dbgp_types
module Speaker = Dbgp_core.Speaker
module Ia = Dbgp_core.Ia
module Network = Dbgp_netsim.Network

let asn = Asn.of_int
let prefix = Prefix.of_string "203.0.113.0/24"

let () =
  let net = Network.create () in
  (* One D-BGP speaker per AS.  [passthrough:true] is the default: these
     routers carry any protocol's control information. *)
  List.iter
    (fun n ->
      Network.add_speaker net
        (Speaker.create
           (Speaker.config ~asn:(asn n) ~addr:(Network.speaker_addr (asn n)) ())))
    [ 1; 2; 3; 4 ];
  (* Business relationships: each AS is the customer of the next, so the
     origin's advertisement is exported all the way up. *)
  List.iter
    (fun (a, b) ->
      Network.link net ~a:(asn a) ~b:(asn b) ~b_is:Dbgp_bgp.Policy.To_provider ())
    [ (1, 2); (2, 3); (3, 4) ];
  (* AS 1 originates its prefix. *)
  Network.originate net (asn 1)
    (Ia.originate ~prefix ~origin_asn:(asn 1)
       ~next_hop:(Network.speaker_addr (asn 1)) ());
  let stats = Network.run net in
  Format.printf "converged after %d control messages (%d bytes of IAs)@."
    stats.Network.messages stats.Network.announce_bytes;
  (* Inspect what AS 4 learned. *)
  ( match Speaker.best (Network.speaker net (asn 4)) prefix with
    | Some chosen ->
      Format.printf "@.AS 4's selected route:@.%a@." Ia.pp
        chosen.Speaker.candidate.Dbgp_core.Decision_module.ia
    | None -> Format.printf "AS 4 has no route?!@." );
  (* The control plane fills FIBs; drive a packet from AS 4 to AS 1. *)
  let open Dbgp_dataplane in
  let engine = Engine.create () in
  List.iter
    (fun n ->
      Engine.add engine
        (Dbgp_eval.Harness.forwarder (Network.speaker net (asn n))))
    [ 1; 2; 3; 4 ];
  let pkt =
    Packet.make
      ~headers:
        [ Header.Ipv4_hdr
            { src = Network.speaker_addr (asn 4);
              dst = Ipv4.of_string "203.0.113.50" } ]
      ~payload:"hello, D-BGP" ()
  in
  Format.printf "@.forwarding a packet from AS 4: %a@." Engine.pp_outcome
    (Engine.route engine ~from:(asn 4) pkt)
