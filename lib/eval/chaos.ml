(* Chaos harness: seeded fault schedules over BRITE topologies.

   Each run builds a random AS graph, converges it, then subjects it to a
   chaos phase — probabilistic message loss, latency jitter and scheduled
   link flaps — with graceful restart and route-flap damping active, and
   finally checks the resilience invariants: every AS reconverges onto a
   route, no stale (restart-retained) route outlives its window, and the
   data plane is loop-free.  Everything is driven by one seed, so the same
   seed reproduces the same run event for event. *)

open Dbgp_types
module Speaker = Dbgp_core.Speaker
module Network = Dbgp_netsim.Network
module Event_queue = Dbgp_netsim.Event_queue
module Fault_model = Dbgp_netsim.Fault_model
module Session = Dbgp_netsim.Session
module Graph = Dbgp_topology.As_graph
module Brite = Dbgp_topology.Brite
module Damping = Dbgp_bgp.Flap_damping

type config = {
  seed : int;
  ases : int;
  loss : float;            (* per-message loss probability during chaos *)
  corruption : float;      (* per-message wire-corruption probability *)
  duplicate : float;       (* per-message duplicate-delivery probability *)
  reorder : float;         (* per-message reorder (extra-delay) probability *)
  latency_jitter : float;  (* max extra per-message latency, seconds *)
  flaps : int;             (* scheduled link flaps *)
  flap_start : float;      (* chaos-phase offset of the first flap *)
  flap_spacing : float;    (* gap between successive flap starts *)
  down_time : float;       (* how long each flapped link stays down *)
  mrai : float;
  graceful_window : float option;
  damping : Damping.params option;
  budget : int option;     (* per-phase event budget; None = run to quiescence *)
}

let default =
  { seed = 42;
    ases = 60;
    loss = 0.05;
    corruption = 0.02;
    duplicate = 0.02;
    reorder = 0.05;
    latency_jitter = 0.3;
    flaps = 4;
    flap_start = 50.;
    flap_spacing = 40.;
    down_time = 15.;
    mrai = 0.;
    graceful_window = Some 10.;
    damping =
      (* A fast-decaying profile so suppression and reuse both happen
         within the run's time scale. *)
      Some { Damping.default with Damping.half_life = 5. };
    budget = None }

type report = {
  config : config;
  initial : Network.stats;
  final : Network.stats;
  flapped : (int * int) list;  (* links taken down and restored *)
  dropped : int;               (* messages lost to faults, total *)
  reconverged : bool;          (* nothing reachable pre-chaos lost its route *)
  baseline_unreachable : int;  (* ASes valley-free policy never reaches *)
  unreachable : int;           (* ASes with no route after the chaos phase *)
  stale_leaks : int;           (* stale routes surviving past all windows *)
  forwarding_loops : int;      (* ASes whose data-plane walk cycles *)
  sessions_restored : bool;    (* all flapped links are back up *)
  corrupted : int;             (* wire corruptions injected *)
  corruption_survived : int;   (* corrupted messages the codec absorbed *)
  error_verdicts : (string * int) list;
  (* RFC 7606 error-class counters summed across speakers, by class name *)
  invariants : Invariants.report;  (* post-chaos safety-invariant check *)
  censored : bool;
  (* a phase stopped on its event budget with work still queued — every
     "final" number below is a truncation point, not a quiescent state *)
  convergence_p50 : float;     (* per-speaker last-change-time percentiles *)
  convergence_p90 : float;
  convergence_p99 : float;
  churn_per_flap : float;      (* chaos-phase messages per link flap *)
  obs : Dbgp_obs.Snapshot.t;   (* the full network snapshot, JSON-ready *)
}

let prefix = Prefix.of_string "99.0.0.0/24"
let dest = Ipv4.of_string "99.0.0.1"

let build cfg =
  let rng = Prng.create cfg.seed in
  let g = Brite.generate rng { Brite.default with Brite.n = cfg.ases } in
  (* This network's speakers are the only route holders from here on,
     so the attribute table's refcounts can be audited against them. *)
  Dbgp_core.Attr_table.reset ();
  let net = Network.create () in
  for i = 0 to Graph.size g - 1 do
    ignore (Harness.add_as net (i + 1))
  done;
  let edges =
    Graph.fold_edges
      (fun a b view acc ->
        let rel = Harness.relationship view in
        Network.link net ~a:(Asn.of_int (a + 1)) ~b:(Asn.of_int (b + 1))
          ~b_is:rel ();
        (a + 1, b + 1) :: acc)
      g []
  in
  (net, List.rev edges, rng)

(* Follow FIB next hops from [asn] toward the destination; a revisited AS
   means a forwarding loop. *)
let walk_loops net asn =
  let rec go seen a =
    if List.mem a seen then true
    else
      match Speaker.next_hop_of (Network.speaker net a) dest with
      | None -> false
      | Some nh ->
        ( match Network.asn_of_addr net nh with
          | None -> false
          | Some next -> go (a :: seen) next )
  in
  go [] asn

let origin_ia () =
  Dbgp_core.Ia.originate ~prefix ~origin_asn:(Asn.of_int 1)
    ~next_hop:(Network.speaker_addr (Asn.of_int 1)) ()

let unreachable_set net =
  List.filter
    (fun a ->
      (not (Asn.equal a (Asn.of_int 1)))
      && Speaker.best (Network.speaker net a) prefix = None)
    (Network.asns net)

let run_with_net cfg =
  let net, edges, rng = build cfg in
  Network.set_mrai net cfg.mrai;
  Network.set_graceful_restart net cfg.graceful_window;
  Network.set_damping net cfg.damping;
  Network.originate net (Asn.of_int 1) (origin_ia ());
  let initial = Network.run ?max_events:cfg.budget net in
  let initial_drift = Invariants.network_refcounts net in
  (* Valley-free policy can leave some stub ASes without a route even in
     a fault-free world; they are the baseline the post-chaos state is
     measured against, not a chaos casualty. *)
  let baseline = unreachable_set net in

  (* Chaos phase: loss + jitter live from now until the last recovery,
     flaps spread over the schedule.  All times are relative to the
     converged clock so events never land in the past. *)
  let now = Event_queue.now (Network.queue net) in
  let flapped =
    Array.to_list
      (Prng.sample rng (min cfg.flaps (List.length edges))
         (Array.of_list edges))
  in
  let last_up =
    now +. cfg.flap_start
    +. (float_of_int (max 0 (List.length flapped - 1)) *. cfg.flap_spacing)
    +. cfg.down_time
  in
  let fault = Fault_model.create ~seed:(cfg.seed + 1) () in
  Fault_model.set_loss ~from:now ~until:last_up fault cfg.loss;
  Fault_model.set_jitter fault cfg.latency_jitter;
  Fault_model.set_corruption fault cfg.corruption;
  Fault_model.set_duplicate fault cfg.duplicate;
  Fault_model.set_reorder fault cfg.reorder;
  Network.set_fault_model net fault;
  List.iteri
    (fun i (a, b) ->
      let down_at = now +. cfg.flap_start +. (float_of_int i *. cfg.flap_spacing) in
      Network.schedule_flap net ~down_at ~up_at:(down_at +. cfg.down_time)
        (Asn.of_int a) (Asn.of_int b))
    flapped;
  (* Mid-chaos refresh: flap recovery alone produces a withdrawal-heavy
     phase, so push a full re-advertisement wave through the still-live
     fault window — that is where wire corruption, duplicate delivery and
     reordering meet real announce traffic.  Any treat-as-withdraw
     casualties are repaired by the post-window sweep below. *)
  Event_queue.schedule_at (Network.queue net)
    ~time:(now +. (cfg.flap_start /. 2.))
    (fun () -> Network.refresh_all net);
  (* Recovery sweep once the loss window has closed: lossy delivery can
     leave adj-out and adj-in views divergent, exactly what a BGP route
     refresh repairs. *)
  Event_queue.schedule_at (Network.queue net)
    ~time:(last_up +. (2. *. cfg.flap_spacing))
    (fun () -> Network.refresh_all net);
  let final = Network.run ?max_events:cfg.budget net in

  let unreachable = unreachable_set net in
  let forwarding_loops =
    List.length (List.filter (walk_loops net) (Network.asns net))
  in
  let times = Network.convergence_times net in
  let pct q = Dbgp_obs.Snapshot.percentile times q in
  let churn_per_flap =
    let flaps = List.length flapped in
    if flaps = 0 then 0.
    else
      float_of_int (final.Network.messages - initial.Network.messages)
      /. float_of_int flaps
  in
  let invariants =
    let r = Invariants.check ~prefix ~dest net in
    { r with
      Invariants.violations =
        r.Invariants.violations @ initial_drift
        @ Invariants.network_refcounts net }
  in
  let net_counter name =
    match Dbgp_obs.Metrics.find_counter (Network.metrics net) name with
    | Some c -> Dbgp_obs.Metrics.count c
    | None -> 0
  in
  let error_verdicts =
    List.map
      (fun cls ->
        let name = Dbgp_core.Errors.counter_name cls in
        (name, Network.counter_total net name))
      Dbgp_core.Errors.all_classes
  in
  let obs =
    match Network.snapshot ~recent_events:20 net with
    | Dbgp_obs.Snapshot.Obj fields ->
      Dbgp_obs.Snapshot.Obj
        (fields @ [ ("invariants", Invariants.to_snapshot invariants) ])
    | other -> other
  in
  { config = cfg;
    initial;
    final;
    flapped;
    dropped = final.Network.dropped;
    reconverged =
      List.for_all (fun a -> List.exists (Asn.equal a) baseline) unreachable;
    baseline_unreachable = List.length baseline;
    unreachable = List.length unreachable;
    stale_leaks = Network.stale_total net;
    forwarding_loops;
    sessions_restored =
      List.for_all
        (fun (a, b) -> Network.link_up net (Asn.of_int a) (Asn.of_int b))
        flapped;
    convergence_p50 = pct 0.5;
    convergence_p90 = pct 0.9;
    convergence_p99 = pct 0.99;
    churn_per_flap;
    censored = initial.Network.exhausted || final.Network.exhausted;
    corrupted = net_counter "net.corruption.injected";
    corruption_survived = net_counter "net.corruption.survived";
    error_verdicts;
    invariants;
    obs },
  net

let run cfg = fst (run_with_net cfg)

let healthy r =
  (* A censored run proves nothing: the invariants were checked against a
     truncation point, not a quiescent network. *)
  (not r.censored) && r.reconverged && r.stale_leaks = 0
  && r.forwarding_loops = 0 && r.sessions_restored
  && Invariants.ok r.invariants

(* Session-level chaos: point-to-point FSM sessions with auto-reconnect,
   repeatedly losing their transport.  With retry configured every pair
   must climb back to Established through the backoff schedule. *)

type session_report = {
  pairs : int;
  drops : int;
  established : int;  (* pairs fully Established at the end *)
  retries : int;      (* connect-retry timers armed across all endpoints *)
  budget_exhausted : bool;
  (* the bounded run stopped on its event budget with work still queued
     (expected here: keepalive timers re-arm forever) *)
}

let session_chaos ?(pairs = 8) ?(drops = 3) ~seed () =
  let q = Event_queue.create () in
  let retry = { Dbgp_bgp.Fsm.default_retry with Dbgp_bgp.Fsm.seed } in
  let cfg asn id : Dbgp_bgp.Fsm.config =
    { Dbgp_bgp.Fsm.my_asn = Asn.of_int asn;
      my_id = Ipv4.of_octets 10 1 0 id;
      hold_time = 90;
      capabilities = [ Dbgp_bgp.Message.capability_dbgp ] }
  in
  let endpoints =
    List.init pairs (fun i ->
        let a, b =
          Session.create q
            ~retry:{ retry with Dbgp_bgp.Fsm.seed = seed + (2 * i) }
            ~a:(cfg (64500 + (2 * i)) (2 * i))
            ~b:(cfg (64501 + (2 * i)) ((2 * i) + 1))
            ()
        in
        Session.start a;
        Session.start b;
        (a, b))
  in
  (* Scripted transport failures, spaced out so each re-establishment
     completes before the next drop. *)
  for round = 1 to drops do
    Event_queue.schedule_at q ~time:(float_of_int (round * 200)) (fun () ->
        List.iter (fun (a, _) -> Session.drop_connection a) endpoints)
  done;
  (* Keepalive timers re-arm forever; bound the run instead of draining. *)
  ignore (Event_queue.run ~max_events:(pairs * drops * 400) q);
  let budget_exhausted = Event_queue.budget_exhausted q in
  let established =
    List.length
      (List.filter
         (fun (a, b) ->
           Session.state a = Dbgp_bgp.Fsm.Established
           && Session.state b = Dbgp_bgp.Fsm.Established)
         endpoints)
  in
  let retries =
    List.fold_left
      (fun acc (a, b) -> acc + Session.retry_count a + Session.retry_count b)
      0 endpoints
  in
  { pairs; drops; established; retries; budget_exhausted }

let pp_report ppf r =
  Format.fprintf ppf
    "@[<v>chaos seed=%d ases=%d loss=%.2f flaps=%d:@,\
     initial: %d msgs, converged t=%.1f@,\
     final:   %d msgs, %d dropped, quiet t=%.1f@,\
     reconverged=%b unreachable=%d (baseline %d) stale=%d loops=%d \
     restored=%b censored=%b@,\
     corruption: %d injected, %d survived; verdicts:%a@,\
     %a@,\
     convergence p50=%.1f p90=%.1f p99=%.1f; churn %.1f msgs/flap@]"
    r.config.seed r.config.ases r.config.loss (List.length r.flapped)
    r.initial.Network.messages r.initial.Network.converged_at
    r.final.Network.messages r.dropped r.final.Network.converged_at
    r.reconverged r.unreachable r.baseline_unreachable r.stale_leaks
    r.forwarding_loops r.sessions_restored r.censored
    r.corrupted r.corruption_survived
    (fun ppf vs ->
      List.iter (fun (k, v) -> Format.fprintf ppf " %s=%d" k v) vs)
    r.error_verdicts Invariants.pp r.invariants
    r.convergence_p50 r.convergence_p90 r.convergence_p99 r.churn_per_flap

let pp_session_report ppf r =
  Format.fprintf ppf
    "session chaos: %d pairs, %d drops -> %d re-established, %d retries%s"
    r.pairs r.drops r.established r.retries
    (if r.budget_exhausted then " (event budget exhausted)" else "")
