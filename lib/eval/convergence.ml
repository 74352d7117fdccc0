open Dbgp_types
module Speaker = Dbgp_core.Speaker
module Ia = Dbgp_core.Ia
module Value = Dbgp_core.Value
module Network = Dbgp_netsim.Network
module Session = Dbgp_netsim.Session
module Graph = Dbgp_topology.As_graph
module Brite = Dbgp_topology.Brite

(* Build a simulated network mirroring an As_graph: node i becomes
   AS (i+1), relationships preserved. *)
let network_of_graph g =
  let net = Network.create () in
  let n = Graph.size g in
  for i = 0 to n - 1 do
    ignore (Harness.add_as net (i + 1))
  done;
  Graph.fold_edges
    (fun a b view_of_b_from_a () ->
      let rel = Harness.relationship view_of_b_from_a in
      Network.link net ~a:(Asn.of_int (a + 1)) ~b:(Asn.of_int (b + 1)) ~b_is:rel ())
    g ();
  net

let payload_proto =
  Protocol_id.register ~kind:Protocol_id.Critical_fix "convergence-fix"

let origin_ia ?(payload_bytes = 0) asn_int =
  let asn = Asn.of_int asn_int in
  let ia =
    Ia.originate
      ~prefix:(Prefix.of_string "99.0.0.0/24")
      ~origin_asn:asn ~next_hop:(Network.speaker_addr asn) ()
  in
  if payload_bytes = 0 then ia
  else
    Ia.set_path_descriptor ~owners:[ payload_proto ] ~field:"cf-payload"
      (Value.Bytes (String.make payload_bytes 'c'))
      ia

type dissemination = {
  ases : int;
  payload_bytes : int;
  messages : int;
  bytes : int;
  converged_at : float;
}

let vs_size ?(payloads = [ 0; 4096 ]) ?(sizes = [ 50; 100; 200 ]) ~seed () =
  List.concat_map
    (fun ases ->
      List.map
        (fun payload_bytes ->
          let g =
            Brite.generate (Prng.create seed) { Brite.default with Brite.n = ases }
          in
          let net = network_of_graph g in
          Network.originate net (Asn.of_int 1) (origin_ia ~payload_bytes 1);
          let stats = Network.run net in
          { ases;
            payload_bytes;
            messages = stats.Network.messages;
            bytes = stats.Network.announce_bytes;
            converged_at = stats.Network.converged_at })
        payloads)
    sizes

(* Full observability pass over one dissemination: run a topology to
   convergence and read the per-speaker registries back out — message and
   byte totals, decision-process activity, and the distribution of
   per-speaker convergence times. *)
type observed = {
  ases : int;
  censored : bool;
  messages : int;
  announce_bytes : int;
  decision_runs : int;
  decision_changes : int;
  p50 : float;
  p90 : float;
  p99 : float;
  snapshot : Dbgp_obs.Snapshot.t;
}

let observe ?(ases = 100) ?(recent_events = 20) ?budget ~seed () =
  let g = Brite.generate (Prng.create seed) { Brite.default with Brite.n = ases } in
  let net = network_of_graph g in
  Network.originate net (Asn.of_int 1) (origin_ia 1);
  let stats = Network.run ?max_events:budget net in
  let times = Network.convergence_times net in
  let pct q = Dbgp_obs.Snapshot.percentile times q in
  { ases;
    censored = stats.Network.exhausted;
    messages = stats.Network.messages;
    announce_bytes = stats.Network.announce_bytes;
    decision_runs = Network.counter_total net "decision.runs";
    decision_changes = Network.counter_total net "decision.changes";
    p50 = pct 0.5;
    p90 = pct 0.9;
    p99 = pct 0.99;
    snapshot = Network.snapshot ~recent_events net }

type failure = {
  initial_messages : int;
  reconvergence_messages : int;
  still_reachable : bool;
}

let after_failure ?(ases = 100) ~seed () =
  let g = Brite.generate (Prng.create seed) { Brite.default with Brite.n = ases } in
  let net = network_of_graph g in
  Network.originate net (Asn.of_int 1) (origin_ia 1);
  let s1 = Network.run net in
  (* Fail the origin-side link of some AS that routes via a multi-hop
     path, then reconverge. *)
  let prefix = Prefix.of_string "99.0.0.0/24" in
  (* Prefer a victim that holds an alternate candidate, so the
     experiment exercises recovery rather than disconnection. *)
  let victim =
    List.find_map
      (fun n ->
        let asn = Asn.of_int (n + 1) in
        let sp = Network.speaker net asn in
        match Speaker.best sp prefix with
        | Some chosen ->
          ( match chosen.Speaker.candidate.Dbgp_core.Decision_module.from_peer with
            | Some p
              when (not (Asn.equal p.Dbgp_core.Peer.asn (Asn.of_int 1)))
                   && List.length (Speaker.candidates_for sp prefix) >= 2 ->
              Some (asn, p.Dbgp_core.Peer.asn)
            | _ -> None )
        | None -> None)
      (List.init (Graph.size g) Fun.id)
  in
  match victim with
  | None ->
    { initial_messages = s1.Network.messages; reconvergence_messages = 0;
      still_reachable = true }
  | Some (v, via) ->
    Network.fail_link net v via;
    let s2 = Network.run net in
    { initial_messages = s1.Network.messages;
      reconvergence_messages = s2.Network.messages - s1.Network.messages;
      still_reachable = Speaker.best (Network.speaker net v) prefix <> None }

type reset = {
  prefixes : int;
  payload_bytes : int;
  handshake_messages : int;
  initial_transfer_bytes : int;
  reset_transfer_bytes : int;
}

let session_reset ?(prefixes = 200) ?(payload_bytes = 0) () =
  let q = Dbgp_netsim.Event_queue.create () in
  let cfg asn id : Dbgp_bgp.Fsm.config =
    { Dbgp_bgp.Fsm.my_asn = Asn.of_int asn; my_id = Ipv4.of_string id;
      hold_time = 90;
      capabilities = [ Dbgp_bgp.Message.capability_dbgp ] }
  in
  let a, b = Session.create q ~a:(cfg 64501 "10.0.0.1") ~b:(cfg 64502 "10.0.0.2") () in
  Session.start a;
  Session.start b;
  ignore (Dbgp_netsim.Event_queue.run ~max_events:100 q);
  let handshake_messages = Session.messages_sent a + Session.messages_sent b in
  assert (Session.state a = Dbgp_bgp.Fsm.Established);
  let table =
    Workload.generate (Workload.spec ~payload_bytes ~advertisements:prefixes ())
  in
  let transfer () =
    let before = Session.bytes_sent a in
    List.iter (Session.send_ia a) table;
    ignore (Dbgp_netsim.Event_queue.run ~max_events:(prefixes * 4) q);
    Session.bytes_sent a - before
  in
  let initial = transfer () in
  (* Session reset: transport failure, re-establish, full table again. *)
  Session.drop_connection a;
  ignore (Dbgp_netsim.Event_queue.run ~max_events:100 q);
  Session.start a;
  Session.start b;
  ignore (Dbgp_netsim.Event_queue.run ~max_events:100 q);
  let again = transfer () in
  { prefixes; payload_bytes; handshake_messages;
    initial_transfer_bytes = initial; reset_transfer_bytes = again }

let pp_dissemination ppf (d : dissemination) =
  Format.fprintf ppf
    "%4d ASes, %5d B payload: %6d msgs, %9d bytes, converged at t=%.1f"
    d.ases d.payload_bytes d.messages d.bytes d.converged_at

let pp_observed ppf o =
  Format.fprintf ppf
    "%4d ASes: %6d msgs, %9d bytes, %d runs / %d changes, \
     convergence p50=%.1f p90=%.1f p99=%.1f%s"
    o.ases o.messages o.announce_bytes o.decision_runs o.decision_changes
    o.p50 o.p90 o.p99
    (if o.censored then " [censored: event budget exhausted]" else "")

let pp_failure ppf f =
  Format.fprintf ppf
    "initial %d msgs; +%d msgs to reconverge after failure; reachable: %b"
    f.initial_messages f.reconvergence_messages f.still_reachable

let pp_reset ppf r =
  Format.fprintf ppf
    "%4d prefixes at %5d B: handshake %d msgs, transfer %d B, after reset %d B"
    r.prefixes r.payload_bytes r.handshake_messages r.initial_transfer_bytes
    r.reset_transfer_bytes
