open Dbgp_types
module Speaker = Dbgp_core.Speaker
module Peer = Dbgp_core.Peer

type result = {
  label : string;
  advertisements : int;
  peers : int;
  avg_adv_bytes : int;
  elapsed_s : float;
  prefixes_per_s : float;
}

let time f =
  (* Isolate arms from each other's garbage. *)
  Gc.compact ();
  let t0 = Unix.gettimeofday () in
  let x = f () in
  (x, Unix.gettimeofday () -. t0)

(* Every arm spreads its advertisements over the same six peers. *)
let peers = 6

let peer_of i =
  Peer.make
    ~asn:(Asn.of_int (65001 + (i mod peers)))
    ~addr:(Ipv4.of_octets 192 168 0 (1 + (i mod peers)))

let mk_result label ~advertisements ~total_bytes elapsed_s =
  { label;
    advertisements;
    peers;
    avg_adv_bytes = (if advertisements = 0 then 0 else total_bytes / advertisements);
    elapsed_s;
    prefixes_per_s =
      (if elapsed_s > 0. then float_of_int advertisements /. elapsed_s else 0.) }

let run_quagga_equivalent ~advertisements () =
  let s = Workload.spec ~advertisements () in
  let wire =
    Workload.generate_updates s
    |> List.map (fun u -> Dbgp_bgp.Message.encode (Dbgp_bgp.Message.Update u))
  in
  let total_bytes = List.fold_left (fun a m -> a + String.length m) 0 wire in
  (* The same RIB stages the D-BGP speaker uses, with plain-BGP attribute
     candidates as the route type. *)
  let rib_in = Dbgp_core.Adj_rib_in.create () in
  let loc =
    Dbgp_core.Loc_rib.create
      ~next_hop:(fun b -> Some b.Dbgp_bgp.Decision.from_peer)
      ()
  in
  let (), elapsed =
    time (fun () ->
        List.iteri
          (fun i msg ->
            match Dbgp_bgp.Message.decode msg with
            | Dbgp_bgp.Message.Update { attrs = Some attrs; nlri; _ } ->
              List.iter
                (fun prefix ->
                  let peer = peer_of i in
                  let cand =
                    { Dbgp_bgp.Decision.attrs;
                      from_peer = peer.Peer.addr;
                      from_asn =
                        ( match Dbgp_bgp.Attr.as_path_asns attrs.Dbgp_bgp.Attr.as_path with
                          | a :: _ -> a
                          | [] -> Asn.of_int 65000 );
                      ebgp = true }
                  in
                  Dbgp_core.Adj_rib_in.set rib_in ~peer prefix cand;
                  let cands =
                    List.map snd (Dbgp_core.Adj_rib_in.candidates rib_in prefix)
                  in
                  match Dbgp_bgp.Decision.best cands with
                  | Some best ->
                    Dbgp_core.Loc_rib.set loc prefix best
                  | None -> Dbgp_core.Loc_rib.remove loc prefix)
                nlri
            | _ -> ())
          wire)
  in
  mk_result "Quagga-equivalent (BGP-only)" ~advertisements ~total_bytes
    elapsed

(* A Beagle arm: replays the encoded trace into a speaker with [peers]
   neighbors.  [step] takes arrival [i] and its bytes and returns what
   the speaker disseminates, [finish] drains what is left; both outboxes
   are re-serialized, the cost the paper attributes Beagle's decay with
   IA size to. *)
let beagle_arm label ~payload_bytes ~advertisements ~step ~finish =
  let s = Workload.spec ~payload_bytes ~advertisements () in
  let wire = List.map Dbgp_core.Codec.encode (Workload.generate s) in
  let total_bytes = List.fold_left (fun a m -> a + String.length m) 0 wire in
  let speaker =
    Speaker.create
      (Speaker.config ~asn:(Asn.of_int 64512)
         ~addr:(Ipv4.of_octets 192 168 1 1) ())
  in
  for i = 0 to peers - 1 do
    Speaker.add_neighbor speaker
      (Speaker.neighbor ~relationship:Dbgp_bgp.Policy.To_peer (peer_of i))
  done;
  let emit outbox =
    List.iter
      (fun (_, out) ->
        match out with
        | Speaker.Announce ia -> ignore (Dbgp_core.Codec.encode ia)
        | Speaker.Withdraw _ -> ())
      outbox
  in
  let (), elapsed =
    time (fun () ->
        List.iteri
          (fun i msg -> emit (step speaker i ~from:(peer_of i) msg))
          wire;
        emit (finish speaker))
  in
  mk_result label ~advertisements ~total_bytes elapsed

let run_beagle ?(payload_bytes = 0) ~advertisements () =
  let label =
    if payload_bytes = 0 then "Beagle (BGP-only IAs)"
    else Printf.sprintf "Beagle (%d KB IAs)" (payload_bytes / 1024)
  in
  beagle_arm label ~payload_bytes ~advertisements
    ~step:(fun s _ ~from m ->
      snd (Speaker.receive_wire s ~from Dbgp_core.Codec.Announce m))
    ~finish:(fun _ -> [])

(* The MRAI-style receive path: arrivals are only ingested into the
   speaker's dirty-prefix pipeline and a drain runs once per 32, so
   colliding prefixes share one decision run. *)
let run_beagle_batched ~advertisements () =
  beagle_arm "Beagle batched/32 (BGP-only)" ~payload_bytes:0 ~advertisements
    ~step:(fun s i ~from m ->
      ignore
        (Speaker.receive_wire ~defer:true s ~from Dbgp_core.Codec.Announce m);
      if (i + 1) mod 32 = 0 then Speaker.flush s else [])
    ~finish:Speaker.flush

(* ------------------- event-budget probe ------------------- *)

type budget_probe = {
  ases : int;
  budget : int;
  events_run : int;
  budget_exhausted : bool;
}

(* Drive a provider chain under a deliberately insufficient event budget
   to prove truncation is reported, then the same topology unbounded to
   prove a quiescent run is not flagged.  Exercises the
   {!Dbgp_netsim.Event_queue} budget-exhaustion signal end to end
   through [Network.run]. *)
let run_budget_probe ?(ases = 20) ?(budget = 10) () =
  let module Network = Dbgp_netsim.Network in
  let build () =
    let net = Network.create () in
    for i = 1 to ases do
      ignore (Harness.add_as net i)
    done;
    for i = 1 to ases - 1 do
      Harness.cust net i (i + 1)
    done;
    let origin = Asn.of_int 1 in
    Network.originate net origin
      (Dbgp_core.Ia.originate
         ~prefix:(Prefix.of_string "99.77.0.0/24")
         ~origin_asn:origin
         ~next_hop:(Network.speaker_addr origin) ());
    net
  in
  let bounded = Network.run ~max_events:budget (build ()) in
  let free = Network.run (build ()) in
  { ases;
    budget;
    events_run = bounded.Network.events;
    budget_exhausted =
      bounded.Network.exhausted && not free.Network.exhausted }

let pp_budget_probe ppf r =
  Format.fprintf ppf
    "budget probe: %d ASes, %d-event budget -> ran %d, exhausted=%b"
    r.ases r.budget r.events_run r.budget_exhausted

let suite ?(advertisements = 2_000) () =
  (* Every arm replays the same number of advertisements so RIB-size
     effects cancel and only the serialization cost differs. *)
  [ run_quagga_equivalent ~advertisements ();
    run_beagle ~advertisements ();
    run_beagle_batched ~advertisements ();
    run_beagle ~payload_bytes:(32 * 1024) ~advertisements ();
    run_beagle ~payload_bytes:(256 * 1024) ~advertisements () ]

let pp_result ppf r =
  Format.fprintf ppf "%-28s %8d advs  %6d B/adv  %8.2fs  %10.0f prefixes/s"
    r.label r.advertisements r.avg_adv_bytes r.elapsed_s r.prefixes_per_s
