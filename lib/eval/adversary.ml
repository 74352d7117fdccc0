(* Adversary harness: blast-radius containment scoring.

   Every attack in the suite ({!Dbgp_adversary.Attack}) is launched on a
   converged network and scored by how far its poison spreads: the set of
   ASes whose data-plane walk toward the victim's destination newly
   passes through the attacker.  Each attack runs across three protocol
   arms — legacy BGP, D-BGP (pass-through on), and D-BGP with the
   BGPSec-like critical fix (per-hop attestations + ROA-style origin
   authorization) — on both a BRITE and a CAIDA-style topology, all
   driven by one seed so the full report is byte-reproducible. *)

open Dbgp_types
module Ia = Dbgp_core.Ia
module Value = Dbgp_core.Value
module Speaker = Dbgp_core.Speaker
module Network = Dbgp_netsim.Network
module Event_queue = Dbgp_netsim.Event_queue
module Graph = Dbgp_topology.As_graph
module Brite = Dbgp_topology.Brite
module Caida = Dbgp_topology.Caida
module Policy = Dbgp_bgp.Policy
module Bgpsec = Dbgp_protocols.Bgpsec_like
module Attack = Dbgp_adversary.Attack
module Metrics = Dbgp_obs.Metrics
module Snapshot = Dbgp_obs.Snapshot

type arm = Legacy | Dbgp | Dbgp_bgpsec

let arms = [ Legacy; Dbgp; Dbgp_bgpsec ]

let arm_name = function
  | Legacy -> "legacy"
  | Dbgp -> "dbgp"
  | Dbgp_bgpsec -> "dbgp_bgpsec"

type topo = Brite | Caida

let topos = [ Brite; Caida ]
let topo_name = function Brite -> "brite" | Caida -> "caida"

type config = {
  seed : int;
  brite_ases : int;
  caida_ases : int;
  budget : int option;  (* per-phase event budget; None = run to quiescence *)
}

let default = { seed = 42; brite_ases = 30; caida_ases = 40; budget = None }

type outcome = {
  topo : topo;
  arm : arm;
  attack : Attack.t;
  ases : int;
  control_clean : bool;
      (* converged honest state: invariants hold, every applicable
         detection predicate is silent *)
  baseline_via : int;   (* ASes already routing via the attacker pre-attack *)
  poisoned : int;       (* ASes newly routing via the attacker under attack *)
  blast_radius : float; (* poisoned / (ases - 1) *)
  time_to_poison : float;
      (* last decision change among poisoned ASes, relative to launch *)
  detections : int;
      (* violations the attack's detection predicate reports under attack *)
  detection_applicable : bool;
      (* false when the arm cannot see the attack at all (legacy BGP
         strips the foreign descriptors the D-BGP attacks target) *)
  claims_containment : bool;
      (* the BGPSec-like arm claims to contain the three hijack classes *)
  contained : bool;     (* poisoned = 0 *)
  time_to_recover : float;
      (* last decision change among poisoned ASes, relative to stand-down *)
  recovered_clean : bool;
      (* post-recovery state is indistinguishable from control *)
  censored : bool;      (* some phase stopped on its event budget *)
}

type report = { config : config; outcomes : outcome list; healthy : bool }

let victim = Asn.of_int 1
let prefix = Prefix.of_string "99.0.0.0/24"
let dest = Ipv4.of_string "99.0.0.1"

(* The pass-through payload the victim attaches at origination: a foreign
   (Wiser) descriptor no transit AS understands, which Section 3.2
   promises arrives verbatim — the thing {!Attack.Passthrough_tamper}
   strips. *)
let tamper_field = "cost"
let tamper_value = Value.Int 7

let secret i = "k" ^ string_of_int i

let graph_of cfg = function
  | Brite ->
    Brite.generate (Prng.create cfg.seed)
      { Brite.default with Brite.n = cfg.brite_ases }
  | Caida ->
    Caida.generate (Prng.create cfg.seed)
      { Caida.default with Caida.n = cfg.caida_ases; Caida.tier1 = 4 }

(* Everyone's key is public knowledge and the ROA ground truth says the
   victim owns its prefix and everything inside it. *)
let pki a = Some (secret (Asn.to_int a))
let authorized p o = (not (Prefix.subsumes prefix p)) || Asn.equal o victim

let build cfg topo arm =
  let g = graph_of cfg topo in
  (* The attribute-table audit after each phase needs this network's
     speakers to be the only route holders. *)
  Dbgp_core.Attr_table.reset ();
  let net = Network.create () in
  let n = Graph.size g in
  let dbgp = arm <> Legacy in
  for i = 0 to n - 1 do
    let s = Harness.add_as net ~passthrough:dbgp (i + 1) in
    if arm = Dbgp_bgpsec then begin
      Speaker.add_module s
        (Bgpsec.decision_module
           { Bgpsec.me = Asn.of_int (i + 1);
             secret = secret (i + 1);
             pki;
             require_full = true;
             authorized = Some authorized });
      Speaker.set_active s prefix Bgpsec.protocol
    end
  done;
  Graph.fold_edges
    (fun a b view () ->
      let rel =
        match view with
        | Graph.Customer_of_me -> Policy.To_customer
        | Graph.Provider_of_me -> Policy.To_provider
        | Graph.Peer_of_me -> Policy.To_peer
      in
      Network.link net ~a_dbgp:dbgp ~b_dbgp:dbgp ~a:(Asn.of_int (a + 1))
        ~b:(Asn.of_int (b + 1)) ~b_is:rel ())
    g ();
  (net, g)

let origin_ia arm =
  let ia =
    Ia.originate ~prefix ~origin_asn:victim
      ~next_hop:(Network.speaker_addr victim) ()
  in
  let ia =
    Ia.set_path_descriptor ~owners:[ Attack.tamper_proto ] ~field:tamper_field
      tamper_value ia
  in
  if arm = Dbgp_bgpsec then Bgpsec.sign_origin ~secret:(secret 1) ~me:victim ia
  else ia

(* Deterministic attacker selection from the graph (victim is index 0):
   hijacks come from the highest stub not adjacent to the victim (so a
   forged attacker–victim adjacency is checkably false); the leak from
   the highest AS with two non-customer attachments (so there is a
   valley to export across); the interposer attacks get a graph-only
   fallback here (highest transit AS) but are normally assigned by
   [most_transited] on the converged network. *)
let pick_attacker g kind =
  let n = Graph.size g in
  let adjacent_to_victim i =
    List.exists (fun (j, _) -> j = 0) (Graph.neighbors g i)
  in
  let last pred =
    let rec go i best =
      if i >= n then best else go (i + 1) (if i > 0 && pred i then Some i else best)
    in
    go 1 None
  in
  let fallback = n - 1 in
  let idx =
    match kind with
    | Attack.Origin_hijack | Attack.Subprefix_hijack
    | Attack.Forged_path_hijack -> (
      match
        last (fun i -> Graph.customers g i = [] && not (adjacent_to_victim i))
      with
      | Some i -> i
      | None -> (
        match last (fun i -> Graph.customers g i = []) with
        | Some i -> i
        | None -> fallback ) )
    | Attack.Route_leak -> (
      match
        last (fun i ->
            List.length (Graph.providers g i) + List.length (Graph.peers g i)
            >= 2)
      with
      | Some i -> i
      | None -> fallback )
    | Attack.Island_forgery | Attack.Passthrough_tamper -> (
      match last (fun i -> Graph.customers g i <> []) with
      | Some i -> i
      | None -> fallback )
  in
  Asn.of_int (idx + 1)

(* The ASes (other than the attacker) whose data-plane walk toward the
   destination passes through or ends at the attacker.  Loops and dead
   ends count as "not via". *)
let via_attacker net attacker =
  List.filter
    (fun a ->
      let rec go seen a =
        if Asn.equal a attacker then true
        else if List.exists (Asn.equal a) seen then false
        else
          match Speaker.next_hop_of (Network.speaker net a) dest with
          | None -> false
          | Some nh -> (
            match Network.asn_of_addr net nh with
            | None -> false
            | Some next -> go (a :: seen) next )
      in
      (not (Asn.equal a attacker)) && go [] a)
    (Network.asns net)

(* The AS the most other ASes route through toward the destination —
   where a tampering transit attacker does the most damage.  Computed on
   the converged network (deterministic; ties break to the higher ASN). *)
let most_transited net =
  fst
    (List.fold_left
       (fun (best, n) a ->
         if Asn.equal a victim then (best, n)
         else
           let v = List.length (via_attacker net a) in
           if v > n || (v = n && Asn.to_int a > Asn.to_int best) then (a, v)
           else (best, n))
       (victim, -1) (Network.asns net))

let last_change net a =
  Metrics.value
    (Metrics.gauge (Speaker.metrics (Network.speaker net a))
       "decision.last_change_at")

(* The attack's detection predicate over current network state; [None]
   when the arm cannot express the check (legacy BGP strips the foreign
   descriptors before any speaker could inspect them). *)
let detect net arm (a : Attack.t) =
  match a.Attack.kind with
  | Attack.Origin_hijack | Attack.Subprefix_hijack ->
    Some
      (Invariants.origin_mismatches net ~prefix ~owner:victim
      @ Invariants.forged_candidates net ~prefix:(Attack.poisoned_prefix a)
          ~owner:victim)
  | Attack.Forged_path_hijack ->
    Some
      (Invariants.forged_adjacencies net ~prefix
      @ Invariants.forged_candidates net ~prefix:(Attack.poisoned_prefix a)
          ~owner:victim)
  | Attack.Route_leak -> Some (Invariants.valley_violations net)
  | Attack.Island_forgery ->
    if arm = Legacy then None
    else
      Some
        (Invariants.forged_island_descriptors net ~prefix
           ~island:Attack.forged_island ~proto:Attack.forged_proto
           ~field:Attack.forged_field ~expected:None)
  | Attack.Passthrough_tamper ->
    if arm = Legacy then None
    else
      let r =
        Invariants.check
          ~expect_descriptor:(Attack.tamper_proto, tamper_field, tamper_value)
          ~prefix ~dest net
      in
      Some
        (List.filter
           (function Invariants.Passthrough_mutated _ -> true | _ -> false)
           r.Invariants.violations)

let detection_count net arm a =
  match detect net arm a with None -> 0 | Some vs -> List.length vs

let state_clean net arm a =
  let expect_descriptor =
    if arm = Legacy then None
    else Some (Attack.tamper_proto, tamper_field, tamper_value)
  in
  Invariants.ok (Invariants.check ?expect_descriptor ~prefix ~dest net)
  && Invariants.network_refcounts net = []
  && (match detect net arm a with None -> true | Some vs -> vs = [])
  (* Predicates for the other attack classes must be silent too: honest
     state carries no forged descriptors, valleys or fake origins. *)
  && Invariants.origin_mismatches net ~prefix ~owner:victim = []
  && Invariants.valley_violations net = []
  && Invariants.forged_adjacencies net ~prefix = []
  && Invariants.forged_candidates net ~prefix ~owner:victim = []
  && Invariants.forged_candidates net ~prefix:(Attack.poisoned_prefix a)
       ~owner:victim
     = []

let run_scenario cfg topo arm kind =
  let net, g = build cfg topo arm in
  let n = Graph.size g in
  Network.set_mrai net 0.;
  (* Phase 1: converge the honest world and check it is clean. *)
  Network.originate net victim (origin_ia arm);
  let s0 = Network.run ?max_events:cfg.budget net in
  let attacker =
    (* The interposer attacks only matter at an AS that actually carries
       others' traffic, so those pick their compromised AS from the
       converged network rather than the bare graph. *)
    match kind with
    | Attack.Island_forgery | Attack.Passthrough_tamper -> most_transited net
    | _ -> pick_attacker g kind
  in
  let attack = { Attack.kind; attacker; victim; prefix } in
  let control_clean = state_clean net arm attack in
  let b0 = via_attacker net attack.Attack.attacker in
  (* Phase 2: launch, reconverge, score the blast. *)
  let t_attack = Event_queue.now (Network.queue net) in
  Attack.launch net attack;
  let s1 = Network.run ?max_events:cfg.budget net in
  let b1 = via_attacker net attack.Attack.attacker in
  let attack_refs_clean = Invariants.network_refcounts net = [] in
  let poisoned =
    List.filter (fun a -> not (List.exists (Asn.equal a) b0)) b1
  in
  let detections = detection_count net arm attack in
  let time_to_poison =
    List.fold_left
      (fun acc a -> Float.max acc (last_change net a -. t_attack))
      0. poisoned
  in
  (* Phase 3: stand down, reconverge, check the damage heals. *)
  let t_down = Event_queue.now (Network.queue net) in
  Attack.stand_down net attack;
  let s2 = Network.run ?max_events:cfg.budget net in
  let b2 = via_attacker net attack.Attack.attacker in
  let recovered_clean =
    attack_refs_clean
    && state_clean net arm attack
    && List.for_all (fun a -> List.exists (Asn.equal a) b0) b2
  in
  let time_to_recover =
    List.fold_left
      (fun acc a -> Float.max acc (last_change net a -. t_down))
      0. poisoned
  in
  { topo;
    arm;
    attack;
    ases = n;
    control_clean;
    baseline_via = List.length b0;
    poisoned = List.length poisoned;
    blast_radius = float_of_int (List.length poisoned) /. float_of_int (n - 1);
    time_to_poison;
    detections;
    detection_applicable = detect net arm attack <> None;
    claims_containment = arm = Dbgp_bgpsec && Attack.is_hijack kind;
    contained = poisoned = [];
    time_to_recover;
    recovered_clean;
    censored =
      s0.Network.exhausted || s1.Network.exhausted || s2.Network.exhausted }

(* The BGPSec-like arm must beat legacy on hijacks: strictly smaller
   aggregate hijack blast radius, on every topology.  (Aggregate, not
   per-variant: a forged 2-hop path can already be longer than every
   real path on a shallow topology, leaving legacy blast at zero with
   nothing left to contain.) *)
let hijack_dominance outcomes =
  List.for_all
    (fun t ->
      let sum arm =
        List.fold_left
          (fun acc o ->
            if
              o.topo = t && o.arm = arm
              && Attack.is_hijack o.attack.Attack.kind
            then acc +. o.blast_radius
            else acc)
          0. outcomes
      in
      sum Dbgp_bgpsec < sum Legacy)
    topos

let healthy_of outcomes =
  List.for_all
    (fun o ->
      (not o.censored) && o.control_clean && o.recovered_clean
      && ((not o.claims_containment) || (o.contained && o.blast_radius = 0.))
      && ((not o.detection_applicable) || o.detections > 0))
    outcomes
  && hijack_dominance outcomes

let run cfg =
  let outcomes =
    List.concat_map
      (fun topo ->
        List.concat_map
          (fun kind -> List.map (fun arm -> run_scenario cfg topo arm kind) arms)
          Attack.all)
      topos
  in
  { config = cfg; outcomes; healthy = healthy_of outcomes }

let outcome_to_snapshot o =
  Snapshot.Obj
    [ ("topology", Snapshot.String (topo_name o.topo));
      ("arm", Snapshot.String (arm_name o.arm));
      ("attack", Snapshot.String (Attack.name o.attack.Attack.kind));
      ("attacker", Snapshot.Int (Asn.to_int o.attack.Attack.attacker));
      ("victim", Snapshot.Int (Asn.to_int o.attack.Attack.victim));
      ("ases", Snapshot.Int o.ases);
      ("control_clean", Snapshot.Bool o.control_clean);
      ("baseline_via_attacker", Snapshot.Int o.baseline_via);
      ("poisoned", Snapshot.Int o.poisoned);
      ("blast_radius", Snapshot.Float o.blast_radius);
      ("time_to_poison", Snapshot.Float o.time_to_poison);
      ("detections", Snapshot.Int o.detections);
      ("detection_applicable", Snapshot.Bool o.detection_applicable);
      ("claims_containment", Snapshot.Bool o.claims_containment);
      ("contained", Snapshot.Bool o.contained);
      ("time_to_recover", Snapshot.Float o.time_to_recover);
      ("recovered_clean", Snapshot.Bool o.recovered_clean);
      ("censored", Snapshot.Bool o.censored) ]

let to_snapshot r =
  Snapshot.Obj
    [ ("seed", Snapshot.Int r.config.seed);
      ("brite_ases", Snapshot.Int r.config.brite_ases);
      ("caida_ases", Snapshot.Int r.config.caida_ases);
      ("scenarios", Snapshot.List (List.map outcome_to_snapshot r.outcomes));
      ("healthy", Snapshot.Bool r.healthy) ]

let pp_outcome ppf o =
  Format.fprintf ppf
    "%-5s %-11s %-18s attacker=%-4d blast=%.3f (%d/%d poisoned, %d baseline) \
     detect=%s poison_t=%.1f recover_t=%.1f%s%s%s"
    (topo_name o.topo) (arm_name o.arm)
    (Attack.name o.attack.Attack.kind)
    (Asn.to_int o.attack.Attack.attacker)
    o.blast_radius o.poisoned (o.ases - 1) o.baseline_via
    (if o.detection_applicable then string_of_int o.detections else "n/a")
    o.time_to_poison o.time_to_recover
    (if o.claims_containment then (if o.contained then " [contained]" else " [CONTAINMENT BROKEN]") else "")
    (if o.control_clean && o.recovered_clean then "" else " [UNCLEAN]")
    (if o.censored then " [censored]" else "")

let pp_report ppf r =
  Format.fprintf ppf "@[<v>adversary suite seed=%d (%d scenarios):@,"
    r.config.seed
    (List.length r.outcomes);
  List.iter (fun o -> Format.fprintf ppf "%a@," pp_outcome o) r.outcomes;
  Format.fprintf ppf "healthy=%b@]" r.healthy
