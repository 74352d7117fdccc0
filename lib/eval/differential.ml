(* Differential test harness: seeded workloads with golden fingerprints.

   Each scenario drives speakers through a deterministic, seeded workload
   and folds everything observable — the ordered message transcript, the
   final best routes, the FIB and the Adj-RIB-Out views — into MD5
   digests.  The digests recorded against the pre-pipeline speaker are
   committed as golden transcripts (test/golden_differential.txt); the
   refactored speaker must reproduce them byte for byte, proving the
   staged RIB pipeline is change-equivalent: same best paths, same
   emitted messages.

   The transcript digest covers the *ordered* message sequence, which is
   strictly stronger than the message-multiset equivalence the
   acceptance criteria ask for.

   The sharded rows run the same kind of workload on a partitioned
   topology ({!Dbgp_netsim.Shard}).  Their transcript is the shard's
   merged per-region transcript — every Loc-RIB change, cross-partition
   delivery and NACK, totally ordered by (time, region, sequence).  For
   a fixed seed the digest is byte-identical for every domain count: the
   region count is part of the scenario (it fixes the partitioned
   schedule), the domain count only changes which OS thread executes
   which region.  Their 1-domain digests live in
   test/golden_sharded.txt. *)

open Dbgp_types
module Speaker = Dbgp_core.Speaker
module Peer = Dbgp_core.Peer
module Codec = Dbgp_core.Codec
module Ia = Dbgp_core.Ia
module Filters = Dbgp_core.Filters
module Damping = Dbgp_bgp.Flap_damping
module Network = Dbgp_netsim.Network
module Shard = Dbgp_netsim.Shard
module Fault_model = Dbgp_netsim.Fault_model
module Graph = Dbgp_topology.As_graph
module Brite = Dbgp_topology.Brite
module P = Dbgp_bgp.Policy

type digest = {
  scenario : string;
  steps : int;      (* workload steps executed *)
  messages : int;   (* messages recorded in the transcript *)
  transcript_md5 : string;
  state_md5 : string;
}

(* ------------------------------------------------------------------ *)
(* Fingerprinting                                                      *)
(* ------------------------------------------------------------------ *)

let addr_of a = Ipv4.of_octets 10 0 ((a lsr 8) land 0xFF) (a land 0xFF)
let peer_of a = Peer.make ~asn:(Asn.of_int a) ~addr:(addr_of a)

let msg_enc = function
  | Speaker.Announce ia -> "A" ^ Codec.encode ia
  | Speaker.Withdraw p -> "W" ^ Prefix.to_string p

(* Everything the refactor must preserve about final speaker state:
   best routes (candidate and outgoing IAs, byte-encoded), the FIB next
   hop for every workload prefix, and the per-neighbor Adj-RIB-Out. *)
let state_digest speakers prefixes =
  let b = Buffer.create 4096 in
  List.iter
    (fun (ai, s) ->
      Buffer.add_string b (Printf.sprintf "AS%d\n" ai);
      List.iter
        (fun (p, (c : Speaker.chosen)) ->
          let via =
            match c.Speaker.candidate.Dbgp_core.Decision_module.from_peer with
            | None -> -1
            | Some pr -> Asn.to_int pr.Peer.asn
          in
          Buffer.add_string b (Printf.sprintf "B %s %d " (Prefix.to_string p) via);
          Buffer.add_string b
            (Codec.encode c.Speaker.candidate.Dbgp_core.Decision_module.ia);
          Buffer.add_string b (Codec.encode c.Speaker.outgoing);
          Buffer.add_char b '\n')
        (Speaker.best_routes s);
      List.iter
        (fun p ->
          let nh =
            match Speaker.next_hop_of s (Prefix.network p) with
            | None -> "-"
            | Some a -> Ipv4.to_string a
          in
          Buffer.add_string b
            (Printf.sprintf "F %s %s\n" (Prefix.to_string p) nh))
        prefixes;
      List.iter
        (fun (n : Speaker.neighbor) ->
          List.iter
            (fun (p, ia) ->
              Buffer.add_string b
                (Printf.sprintf "O %d %s "
                   (Asn.to_int n.Speaker.peer.Peer.asn)
                   (Prefix.to_string p));
              Buffer.add_string b (Codec.encode ia);
              Buffer.add_char b '\n')
            (Speaker.adj_out s n.Speaker.peer))
        (Speaker.neighbors s))
    speakers;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* ------------------------------------------------------------------ *)
(* A miniature relay network at the speaker level: FIFO delivery, no    *)
(* latency model, every hand-off recorded in the transcript.            *)
(* ------------------------------------------------------------------ *)

type mini = {
  mutable clock : float;
  speakers : (int * Speaker.t) list; (* by ASN, ascending *)
  mutable links : (int * int) list;  (* normalized, a < b *)
  q : (int * int * Speaker.msg) Queue.t;
  buf : Buffer.t;
  mutable messages : int;
}

let norm a b = if a < b then (a, b) else (b, a)
let linked m a b = List.mem (norm a b) m.links
let speaker_of m a = List.assoc a m.speakers

let log_msg m tag ~from ~to_ msg =
  Buffer.add_string m.buf (Printf.sprintf "%s %d>%d %s\n" tag from to_ (msg_enc msg));
  m.messages <- m.messages + 1

let enqueue m ~from outbox =
  List.iter
    (fun ((peer : Peer.t), msg) ->
      let to_ = Asn.to_int peer.Peer.asn in
      if linked m from to_ then begin
        log_msg m "tx" ~from ~to_ msg;
        (* Peers without a simulated speaker (the hub scenario's synthetic
           neighbors) still appear in the transcript; only simulated ones
           get the message delivered. *)
        if List.mem_assoc to_ m.speakers then Queue.add (from, to_, msg) m.q
      end)
    outbox

let relay m =
  let budget = ref 200_000 in
  while not (Queue.is_empty m.q) do
    decr budget;
    if !budget < 0 then failwith "Differential.relay: no quiescence";
    let from, to_, msg = Queue.pop m.q in
    log_msg m "rx" ~from ~to_ msg;
    let s = speaker_of m to_ in
    let out = Speaker.receive ~now:m.clock s ~from:(peer_of from) msg in
    enqueue m ~from:to_ out
  done

(* Drain damping reuse obligations to quiescence, reevaluating each
   suppressed prefix at its scheduled reuse time (ordered). *)
let drain_reuse m =
  List.iter
    (fun (ai, s) ->
      let budget = ref 1_000 in
      let rec go () =
        decr budget;
        if !budget < 0 then failwith "Differential.drain_reuse: no quiescence";
        match
          List.sort compare
            (List.map (fun (p, at) -> (at, p)) (Speaker.take_reuse_events s))
        with
        | [] -> ()
        | evs ->
          List.iter
            (fun (at, p) ->
              let now = Float.max at m.clock in
              enqueue m ~from:ai (Speaker.reevaluate ~now s p))
            evs;
          relay m;
          go ()
      in
      go ())
    m.speakers

let mk_speaker ?damping ~addr a =
  let s = Speaker.create (Speaker.config ~asn:(Asn.of_int a) ~addr ()) in
  Speaker.set_damping s damping;
  s

(* What the sequential and sharded rows of one workload share. *)
let damping = { Damping.default with Damping.half_life = 5. }
let strip_membership ia = Some { ia with Ia.membership = [] }

(* The relay line's links: a, b, b's relationship as seen from a, a's
   export filter toward b and whether b speaks D-BGP. *)
let relay_links =
  [ (1, 2, P.To_provider, Filters.accept, true);
    (2, 3, P.To_provider, strip_membership, true);
    (3, 4, P.To_peer, Filters.accept, true);
    (4, 5, P.To_customer, Filters.accept, true);
    (5, 6, P.To_customer, Filters.accept, false) ]

let relay_originations =
  List.map (fun i -> (1, Printf.sprintf "10.1.%d.0/24" i)) [ 0; 1; 2; 3 ]
  @ List.map (fun i -> (6, Printf.sprintf "10.6.%d.0/24" i)) [ 0; 1 ]

let hub = 100

let hub_pool =
  Array.init 12 (fun i -> Prefix.of_string (Printf.sprintf "20.0.%d.0/24" i))

(* The hub's spokes: the spoke's relationship as seen from the hub,
   whether it speaks D-BGP, and the hub's export filter toward it. *)
let hub_spokes () =
  let drop_big = Filters.max_size 90 in
  [ (11, P.To_customer, true, Filters.accept);
    (12, P.To_customer, true, Filters.accept);
    (13, P.To_provider, true, Filters.accept);
    (14, P.To_peer, true, Filters.accept);
    (15, P.To_customer, false, Filters.accept);
    (16, P.To_customer, true, drop_big) ]

(* A spoke's announcement for the hub: a seeded path length (selection
   pressure), with [loops] sometimes a path through the hub itself
   (import rejection), sometimes a Wiser cost. *)
let hub_ia rng ~loops ~next_hop from prefix =
  let ia =
    ref
      (Ia.originate ~prefix ~origin_asn:(Asn.of_int from)
         ~next_hop:(next_hop from) ())
  in
  for h = 1 to Prng.int rng 3 do
    ia := Ia.prepend_as (Asn.of_int (200 + (10 * from) + h)) !ia
  done;
  if loops && Prng.int rng 10 = 0 then ia := Ia.prepend_as (Asn.of_int hub) !ia;
  if Prng.int rng 4 = 0 then
    ia :=
      Ia.set_path_descriptor ~owners:[ Protocol_id.wiser ] ~field:"cost"
        (Dbgp_core.Value.Int (Prng.int rng 100))
        !ia;
  !ia

let spoke_ids () =
  Array.of_list (List.map (fun (a, _, _, _) -> a) (hub_spokes ()))

(* Install both neighbor entries for an AS pair.  [rel_of_b] is b's
   relationship as seen from a (To_customer = b is a's customer). *)
let connect m ?(a_export = Filters.accept) ?(b_dbgp = true) a b rel_of_b =
  let inv : P.relationship -> P.relationship = function
    | P.To_customer -> P.To_provider
    | P.To_provider -> P.To_customer
    | P.To_peer -> P.To_peer
  in
  Speaker.add_neighbor (speaker_of m a)
    (Speaker.neighbor ~export:a_export ~dbgp_capable:b_dbgp
       ~relationship:rel_of_b (peer_of b));
  Speaker.add_neighbor (speaker_of m b)
    (Speaker.neighbor ~relationship:(inv rel_of_b) (peer_of a));
  m.links <- norm a b :: m.links

(* A route refresh toward [peer]: the whole table, as one sync that
   trusts nothing the peer was sent. *)
let refresh s peer =
  Speaker.unconfirm_peer s peer;
  fst (Speaker.sync_peer s peer)

let disconnect m a b =
  m.links <- List.filter (fun l -> l <> norm a b) m.links

let finish name ~steps ~prefixes m =
  { scenario = name;
    steps;
    messages = m.messages;
    transcript_md5 = Digest.to_hex (Digest.string (Buffer.contents m.buf));
    state_md5 = state_digest m.speakers prefixes }

(* ------------------------------------------------------------------ *)
(* Scenario 1: a 6-AS line with a mid-line link cut and recovery.       *)
(* Multi-hop dissemination, valley-free policy, a legacy (BGP-only)     *)
(* edge and a membership-stripping export filter all on the path.       *)
(* ------------------------------------------------------------------ *)

let run_relay_line seed =
  let rng = Prng.create seed in
  let ases = [ 1; 2; 3; 4; 5; 6 ] in
  let m =
    { clock = 0.;
      speakers = List.map (fun a -> (a, mk_speaker ~addr:(addr_of a) a)) ases;
      links = [];
      q = Queue.create ();
      buf = Buffer.create 4096;
      messages = 0 }
  in
  List.iter
    (fun (a, b, rel, a_export, b_dbgp) -> connect m ~a_export ~b_dbgp a b rel)
    relay_links;
  let order = Array.of_list relay_originations in
  Prng.shuffle rng order;
  let steps = ref 0 in
  Array.iter
    (fun (origin, p) ->
      incr steps;
      m.clock <- m.clock +. 1.;
      let prefix = Prefix.of_string p in
      let ia =
        Ia.originate ~prefix ~origin_asn:(Asn.of_int origin)
          ~next_hop:(addr_of origin) ()
      in
      Buffer.add_string m.buf (Printf.sprintf "originate %d %s\n" origin p);
      enqueue m ~from:origin (Speaker.originate ~now:m.clock (speaker_of m origin) ia);
      relay m)
    order;
  (* Cut the mid-line peering link: both sides lose the session and the
     withdrawal wave propagates outward. *)
  incr steps;
  m.clock <- m.clock +. 1.;
  Buffer.add_string m.buf "cut 3-4\n";
  disconnect m 3 4;
  let out3 = Speaker.peer_down ~now:m.clock (speaker_of m 3) (peer_of 4) in
  let out4 = Speaker.peer_down ~now:m.clock (speaker_of m 4) (peer_of 3) in
  enqueue m ~from:3 out3;
  enqueue m ~from:4 out4;
  relay m;
  (* Recover it and resynchronize route-refresh style. *)
  incr steps;
  m.clock <- m.clock +. 1.;
  Buffer.add_string m.buf "recover 3-4\n";
  connect m 3 4 P.To_peer;
  enqueue m ~from:3 (refresh (speaker_of m 3) (peer_of 4));
  enqueue m ~from:4 (refresh (speaker_of m 4) (peer_of 3));
  relay m;
  finish "relay-line" ~steps:!steps
    ~prefixes:(List.map (fun (_, p) -> Prefix.of_string p) relay_originations)
    m

(* ------------------------------------------------------------------ *)
(* Scenario 2: a policy-rich hub under seeded announce/withdraw churn   *)
(* with flap damping, graceful restart and a route refresh.  Exercises  *)
(* duplicate absorption, import rejection (loops), suppression and      *)
(* reuse, and the per-neighbor egress matrix.                           *)
(* ------------------------------------------------------------------ *)

let run_hub_policy seed =
  let rng = Prng.create (seed + 1) in
  let m =
    { clock = 0.;
      speakers = [ (hub, mk_speaker ~damping ~addr:(addr_of hub) hub) ];
      links = [];
      q = Queue.create ();
      buf = Buffer.create 4096;
      messages = 0 }
  in
  let s = speaker_of m hub in
  List.iter
    (fun (a, relationship, dbgp_capable, export) ->
      m.links <- norm hub a :: m.links;
      Speaker.add_neighbor s
        (Speaker.neighbor ~export ~dbgp_capable ~relationship (peer_of a)))
    (hub_spokes ());
  let peers = spoke_ids () in
  let mk_ia = hub_ia rng ~loops:true ~next_hop:addr_of in
  let steps = 400 in
  for _ = 1 to steps do
    m.clock <- m.clock +. 1.;
    let from = peers.(Prng.int rng (Array.length peers)) in
    let prefix = hub_pool.(Prng.int rng (Array.length hub_pool)) in
    let msg =
      if Prng.int rng 4 = 0 then Speaker.Withdraw prefix
      else Speaker.Announce (mk_ia from prefix)
    in
    log_msg m "inject" ~from ~to_:hub msg;
    enqueue m ~from:hub (Speaker.receive ~now:m.clock s ~from:(peer_of from) msg)
  done;
  (* Graceful restart on one customer: stale-mark, partial refresh from
     the peer, then the window closes and flushes the rest. *)
  m.clock <- m.clock +. 1.;
  Buffer.add_string m.buf "graceful 11\n";
  Speaker.peer_down_graceful ~now:m.clock s (peer_of 11);
  m.clock <- m.clock +. 1.;
  let refresh_msg = Speaker.Announce (mk_ia 11 hub_pool.(0)) in
  log_msg m "inject" ~from:11 ~to_:hub refresh_msg;
  enqueue m ~from:hub (Speaker.receive ~now:m.clock s ~from:(peer_of 11) refresh_msg);
  m.clock <- m.clock +. 10.;
  Buffer.add_string m.buf "flush 11\n";
  enqueue m ~from:hub (Speaker.flush_stale ~now:m.clock s (peer_of 11));
  (* Route refresh toward another customer. *)
  Buffer.add_string m.buf "refresh 12\n";
  enqueue m ~from:hub (refresh s (peer_of 12));
  m.clock <- m.clock +. 100.;
  drain_reuse m;
  finish "hub-policy" ~steps:(steps + 4) ~prefixes:(Array.to_list hub_pool) m

(* ------------------------------------------------------------------ *)
(* Scenario 3: a full seeded chaos run (faults, flaps, graceful restart *)
(* and damping over a BRITE topology), fingerprinting the report and    *)
(* the final per-speaker state.                                         *)
(* ------------------------------------------------------------------ *)

let chaos_prefix = Prefix.of_string "99.0.0.0/24"

let run_chaos seed =
  let cfg = { Chaos.default with Chaos.seed; ases = 30; flaps = 3 } in
  let r, net = Chaos.run_with_net cfg in
  let b = Buffer.create 1024 in
  let stats tag (s : Network.stats) =
    Buffer.add_string b
      (Printf.sprintf "%s %d %d %d %d %.6f\n" tag s.Network.messages
         s.Network.withdrawals s.Network.dropped
         s.Network.events s.Network.converged_at)
  in
  stats "initial" r.Chaos.initial;
  stats "final" r.Chaos.final;
  List.iter
    (fun (a, bb) -> Buffer.add_string b (Printf.sprintf "flap %d-%d\n" a bb))
    r.Chaos.flapped;
  List.iter
    (fun (k, v) -> Buffer.add_string b (Printf.sprintf "err %s %d\n" k v))
    r.Chaos.error_verdicts;
  Buffer.add_string b
    (Printf.sprintf "stale %d loops %d healthy %b\n" r.Chaos.stale_leaks
       r.Chaos.forwarding_loops (Chaos.healthy r));
  let speakers =
    List.map
      (fun a -> (Asn.to_int a, Network.speaker net a))
      (Network.asns net)
  in
  { scenario = "chaos-30";
    steps = cfg.Chaos.flaps;
    messages = r.Chaos.final.Network.messages;
    transcript_md5 = Digest.to_hex (Digest.string (Buffer.contents b));
    state_md5 = state_digest speakers [ chaos_prefix ] }

(* ------------------------------------------------------------------ *)
(* The sharded rows.  Speakers sit at {!Network.speaker_addr}, as the   *)
(* shard engine requires.                                              *)
(* ------------------------------------------------------------------ *)

let shard_addr a = Network.speaker_addr (Asn.of_int a)
let shard_speaker ?damping a = mk_speaker ?damping ~addr:(shard_addr a) a

let shard_digest name sh ~steps ~prefixes (stats : Shard.stats) =
  { scenario = name;
    steps;
    messages = stats.Shard.net.Network.messages;
    transcript_md5 = Shard.transcript_digest sh;
    state_md5 = state_digest (Shard.speakers sh) prefixes }

(* ------------------------------------------------------------------ *)
(* Sharded 1: the 6-AS line, split across two regions.  The mid-line   *)
(* peer edge becomes the cut; its fail/recover exercises the lockstep  *)
(* half-link teardown and the cross-partition route refresh.           *)
(* ------------------------------------------------------------------ *)

let run_sharded_relay_line ~seed ~domains =
  let rng = Prng.create seed in
  let sh = Shard.create ~regions:2 ~make_speaker:shard_speaker () in
  List.iter (Shard.add_as sh) [ 1; 2; 3; 4; 5; 6 ];
  List.iter
    (fun (a, b, b_is, a_export, b_dbgp) ->
      Shard.link sh ~a ~b ~b_is ~a_export ~b_dbgp ())
    relay_links;
  Shard.enable_transcript sh;
  Shard.build sh;
  let order = Array.of_list relay_originations in
  Prng.shuffle rng order;
  let steps = ref 0 in
  Array.iteri
    (fun i (origin, p) ->
      incr steps;
      let prefix = Prefix.of_string p in
      Shard.originate sh
        ~at:(float_of_int (i + 1))
        origin
        (Ia.originate ~prefix ~origin_asn:(Asn.of_int origin)
           ~next_hop:(shard_addr origin) ()))
    order;
  incr steps;
  Shard.schedule_fail sh ~at:40. 3 4;
  incr steps;
  Shard.schedule_recover sh ~at:60. 3 4;
  let stats = Shard.run ~domains sh in
  shard_digest "sharded-relay-line" sh ~steps:!steps
    ~prefixes:(List.map (fun (_, p) -> Prefix.of_string p) relay_originations)
    stats

(* ------------------------------------------------------------------ *)
(* Sharded 2: the policy-rich hub, with real spoke speakers this time  *)
(* so the partitioner has something to split.  MRAI 2.0 exercises the  *)
(* uncoalesced cross-partition send path; damping, a cut-link flap and *)
(* shared-pool churn from every spoke exercise suppression, NACKs and  *)
(* best-path competition across the cut.                               *)
(* ------------------------------------------------------------------ *)

let run_sharded_hub_policy ~seed ~domains =
  let rng = Prng.create (seed + 1) in
  let sh =
    Shard.create ~mrai:2.0 ~regions:2
      ~make_speaker:(shard_speaker ~damping)
      ()
  in
  let spokes = spoke_ids () in
  Shard.add_as sh hub;
  Array.iter (Shard.add_as sh) spokes;
  List.iter
    (fun (b, b_is, b_dbgp, a_export) ->
      Shard.link sh ~a:hub ~b ~b_is ~b_dbgp ~a_export ())
    (hub_spokes ());
  Shard.enable_transcript sh;
  Shard.build sh;
  let mk_ia = hub_ia rng ~loops:false ~next_hop:shard_addr in
  let steps = 120 in
  for step = 1 to steps do
    let at = float_of_int step in
    let from = spokes.(Prng.int rng (Array.length spokes)) in
    let prefix = hub_pool.(Prng.int rng (Array.length hub_pool)) in
    if Prng.int rng 4 = 0 then Shard.withdraw_origin sh ~at from prefix
    else Shard.originate sh ~at from (mk_ia from prefix)
  done;
  (* One flap on a hub spoke — whichever side of the cut 14 landed on,
     the schedule is part of the partitioned workload and identical for
     every domain count. *)
  Shard.schedule_fail sh ~at:140. hub 14;
  Shard.schedule_recover sh ~at:155. hub 14;
  let stats = Shard.run ~domains sh in
  shard_digest "sharded-hub-policy" sh ~steps:(steps + 2)
    ~prefixes:(Array.to_list hub_pool) stats

(* ------------------------------------------------------------------ *)
(* Sharded 3: seeded chaos over a 30-AS BRITE graph in four regions.   *)
(* Flap links are pinned intra-region (fault state must stay region-   *)
(* private); per-link loss/jitter/corruption apply only to intra-      *)
(* region links, drawn from per-region split PRNG streams.  Every      *)
(* delivery crosses the codec, so the per-domain encode/decode caches  *)
(* earn their keep.                                                     *)
(* ------------------------------------------------------------------ *)

let run_sharded_chaos ~seed ~domains =
  let rng = Prng.create (seed + 2) in
  let g = Brite.generate rng { Brite.default with Brite.n = 30 } in
  let edges =
    List.rev
      (Graph.fold_edges
         (fun a b view acc ->
           let rel = Harness.relationship view in
           (a + 1, b + 1, rel) :: acc)
         g [])
  in
  let flapped =
    Array.to_list
      (Prng.sample rng 3
         (Array.of_list (List.map (fun (a, b, _) -> (a, b)) edges)))
  in
  let is_flap a b = List.mem (a, b) flapped || List.mem (b, a) flapped in
  let sh =
    Shard.create ~regions:4
      ~make_speaker:(shard_speaker ~damping)
      ()
  in
  for a = 1 to Graph.size g do
    Shard.add_as sh a
  done;
  List.iter
    (fun (a, b, rel) -> Shard.link sh ~pinned:(is_flap a b) ~a ~b ~b_is:rel ())
    edges;
  Shard.enable_transcript sh;
  Shard.build sh;
  (* Region-private fault streams; per-link faults only where both
     endpoints share a region (cut links are fault-free by contract). *)
  let fms = Shard.fault_models sh ~seed:(seed + 3) in
  List.iter
    (fun (a, b, _) ->
      let ra = Shard.region_of sh a in
      if ra = Shard.region_of sh b then
        Fault_model.set_link fms.(ra) ~a ~b ~loss:0.03 ~jitter:0.2
          ~corrupt:0.01 ~duplicate:0.01 ())
    edges;
  let prefixes =
    List.init 6 (fun i -> Prefix.of_string (Printf.sprintf "99.%d.0.0/24" i))
  in
  List.iteri
    (fun i prefix ->
      let origin = 1 + (5 * i mod Graph.size g) in
      Shard.originate sh
        ~at:(float_of_int (i + 1))
        origin
        (Ia.originate ~prefix ~origin_asn:(Asn.of_int origin)
           ~next_hop:(shard_addr origin) ()))
    prefixes;
  List.iteri
    (fun i (a, b) ->
      let down_at = 30. +. (20. *. float_of_int i) in
      Shard.schedule_fail sh ~at:down_at a b;
      Shard.schedule_recover sh ~at:(down_at +. 8.) a b)
    flapped;
  let stats = Shard.run ~domains sh in
  shard_digest "sharded-chaos-30" sh
    ~steps:(List.length prefixes + List.length flapped)
    ~prefixes stats

(* ------------------------------------------------------------------ *)
(* The scenario table: the sharded rows take the domain count, which   *)
(* the sequential rows have no use for.                                *)
(* ------------------------------------------------------------------ *)

let table =
  [ ("relay-line", fun ~seed ~domains:_ -> run_relay_line seed);
    ("hub-policy", fun ~seed ~domains:_ -> run_hub_policy seed);
    ("chaos-30", fun ~seed ~domains:_ -> run_chaos seed);
    ("sharded-relay-line", run_sharded_relay_line);
    ("sharded-hub-policy", run_sharded_hub_policy);
    ("sharded-chaos-30", run_sharded_chaos) ]

let scenarios = List.map fst table

let run ?(seed = 42) ?(domains = 1) name =
  match List.assoc_opt name table with
  | Some f -> f ~seed ~domains
  | None -> invalid_arg ("Differential.run: unknown scenario " ^ name)

(* ------------------------------------------------------------------ *)
(* Golden-file format: one tab-separated line per digest.               *)
(* ------------------------------------------------------------------ *)

let to_line d =
  Printf.sprintf "%s\t%d\t%d\t%s\t%s" d.scenario d.steps d.messages
    d.transcript_md5 d.state_md5

let of_line line =
  match String.split_on_char '\t' (String.trim line) with
  | [ scenario; steps; messages; transcript_md5; state_md5 ] ->
    Some
      { scenario;
        steps = int_of_string steps;
        messages = int_of_string messages;
        transcript_md5;
        state_md5 }
  | _ -> None

let equal a b =
  a.scenario = b.scenario && a.steps = b.steps && a.messages = b.messages
  && a.transcript_md5 = b.transcript_md5
  && a.state_md5 = b.state_md5

let verify ?(domains = 2) name =
  let sequential = run ~domains:1 name in
  let sharded = run ~domains name in
  (sequential, sharded, equal sequential sharded)
