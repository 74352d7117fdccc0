(* The divergence lab: classify a (protocol, topology) combination as
   converged, oscillating, or walltime-censored.

   Why detection is even possible: at quiescence every speaker's Loc-RIB
   entry is a best response to its neighbors' advertisements, so a
   drained event queue *is* a stable path assignment.  A gadget with no
   stable assignment (Griffin/Shepherd/Wilfong's BAD GADGET) therefore
   can never drain the queue — it shows up as an exhausted event budget.
   The detector's job is to split the exhausted runs into two honest
   classes: a recurring global state cycle (oscillation, with a
   measurable period) versus a run that merely ran out of budget before
   quiescing (censored). *)

open Dbgp_types
module Speaker = Dbgp_core.Speaker
module Ia = Dbgp_core.Ia
module Dm = Dbgp_core.Decision_module
module Filters = Dbgp_core.Filters
module Value = Dbgp_core.Value
module Network = Dbgp_netsim.Network
module Event_queue = Dbgp_netsim.Event_queue
module Snapshot = Dbgp_obs.Snapshot
module Damping = Dbgp_bgp.Flap_damping

(* ------------------------------------------------------------------ *)
(* Static dispute-wheel detection                                      *)
(* ------------------------------------------------------------------ *)

(* A ranked-preference policy specification: each node lists its
   permitted AS-level paths to the origin (node's own ASN first, origin
   last), most preferred first.  This is the SPVP abstraction of
   Griffin, Shepherd and Wilfong — exactly enough structure to ask for
   dispute wheels. *)
type pref_spec = {
  origin : int;
  prefs : (int * int list list) list;
}

(* u -> v is a dispute arc when u's non-last-choice path P = u :: Q
   routes through v with Q permitted at v: u's preferred path depends on
   v adopting Q, and u has something to fall back to when v does not.  A
   cycle of such arcs is a dispute wheel — the structural precondition
   for policy divergence (no wheel implies safety; a wheel is a risk,
   not a certainty, cf. DISAGREE). *)
let dispute_wheel spec =
  let prefs_of u = Option.value (List.assoc_opt u spec.prefs) ~default:[] in
  let permitted_at v q =
    (v = spec.origin && q = [ spec.origin ]) || List.mem q (prefs_of v)
  in
  let arcs u =
    let ps = prefs_of u in
    let n = List.length ps in
    List.filteri (fun rank _ -> rank < n - 1) ps
    |> List.filter_map (fun p ->
           match p with
           | _ :: (v :: _ as q) when v <> spec.origin && permitted_at v q ->
             Some v
           | _ -> None)
  in
  let nodes = List.map fst spec.prefs in
  (* DFS with an explicit path stack; the first back-edge closes the
     wheel. *)
  let visited = Hashtbl.create 8 in
  let rec dfs path u =
    match List.find_index (Int.equal u) path with
    | Some i -> Some (List.rev (u :: List.filteri (fun j _ -> j <= i) path))
    | None ->
      if Hashtbl.mem visited u then None
      else begin
        Hashtbl.add visited u ();
        List.find_map (dfs (u :: path)) (arcs u)
      end
  in
  List.find_map (dfs []) nodes

(* ------------------------------------------------------------------ *)
(* Gadget decision modules                                             *)
(* ------------------------------------------------------------------ *)

let spvp_protocol = Protocol_id.register ~kind:Protocol_id.Custom "spvp-pref"

(* A decision module realizing one node's ranked-preference list:
   [ranked] holds the permitted *received* paths (neighbor first, origin
   last; i.e. the spec paths with the node's own ASN stripped), best
   first.  Import rejects everything else; selection is by rank.  This
   is how BAD GADGET's "prefer the route through my clockwise neighbor"
   becomes runnable on the real speakers. *)
let spvp_module ~ranked =
  let rank_of ia =
    let path = List.map Asn.to_int (Ia.asns_on_path ia) in
    let rec idx i = function
      | [] -> None
      | r :: rest -> if r = path then Some i else idx (i + 1) rest
    in
    idx 0 ranked
  in
  let rank c =
    Option.value (rank_of c.Dm.ia) ~default:max_int
  in
  let better a b =
    match Int.compare (rank b) (rank a) with
    | 0 -> Dm.compare_tiebreak a b
    | c -> c
  in
  { Dm.protocol = spvp_protocol;
    import_filter =
      (fun ia -> match rank_of ia with None -> None | Some _ -> Some ia);
    export_filter = Filters.accept;
    select =
      (fun ~prefix:_ cands ->
        match cands with
        | [] -> None
        | c :: rest ->
          Some
            (List.fold_left
               (fun acc x -> if better x acc > 0 then x else acc)
               c rest));
    contribute = (fun ~me:_ ia -> ia) }

let med_protocol = Protocol_id.register ~kind:Protocol_id.Custom "med-rr"

let med_of ia =
  Option.bind
    (Ia.find_path_descriptor ~proto:Protocol_id.bgp ~field:Ia.field_med ia)
    Value.as_int

(* A route-reflector-style MED-aware decision module (the RFC 3345
   churn construction).  [cluster] names the router ASNs forming one
   AS-like cluster; each candidate resolves to an (exit router, exit AS)
   pair.  Selection: MEDs are compared only within one exit AS (higher
   MED eliminated), then the per-router IGP cost to the exit router
   decides, then path length, then the standard tiebreak.  Because MED
   makes the order non-total — IGP preference between exit ASes is not
   monotone under candidate removal — partial visibility (each cluster
   router advertising only its best) can cycle forever. *)
let med_module ~me ~cluster ~igp =
  let in_cluster a = List.mem a cluster in
  let exit_info c =
    let path = List.map Asn.to_int (Ia.asns_on_path c.Dm.ia) in
    match path with
    | [] -> (me, -1)
    | hd :: _ when not (in_cluster hd) -> (me, hd)
    | _ ->
      let rec walk last = function
        | [] -> (last, -1)
        | x :: rest -> if in_cluster x then walk x rest else (last, x)
      in
      walk me path
  in
  let igp_cost key = Option.value (List.assoc_opt key igp) ~default:max_int in
  let select ~prefix:_ cands =
    match cands with
    | [] -> None
    | cands ->
      let annotated =
        List.map (fun c -> (c, exit_info c, med_of c.Dm.ia)) cands
      in
      (* Stage 1: within each exit AS, only the lowest MED survives
         (routes without a MED are incomparable and survive). *)
      let survivors =
        List.filter
          (fun (_, (_, exit_as), med) ->
            match med with
            | None -> true
            | Some m ->
              not
                (List.exists
                   (fun (_, (_, ea'), med') ->
                     ea' = exit_as
                     && match med' with Some m' -> m' < m | None -> false)
                   annotated))
          annotated
      in
      let better (a, ea, _) (b, eb, _) =
        match Int.compare (igp_cost eb) (igp_cost ea) with
        | 0 -> (
          match
            Int.compare (Dm.candidate_path_length b) (Dm.candidate_path_length a)
          with
          | 0 -> Dm.compare_tiebreak a b
          | c -> c )
        | c -> c
      in
      ( match survivors with
        | [] -> None
        | s :: rest ->
          let (c, _, _) =
            List.fold_left (fun acc x -> if better x acc > 0 then x else acc) s rest
          in
          Some c )
  in
  { Dm.protocol = med_protocol;
    import_filter = Filters.accept;
    export_filter = Filters.accept;
    select;
    contribute = (fun ~me:_ ia -> ia) }

(* ------------------------------------------------------------------ *)
(* Online oscillation detection                                        *)
(* ------------------------------------------------------------------ *)

(* The detector subscribes to the network-wide Loc-RIB change feed.  Per
   prefix it maintains the current fingerprint of every speaker's
   installed route and an incrementally-updated commutative combination
   of them — the global routing-state digest for that prefix.  Each
   change appends the digest to a bounded ring; a recurring cycle in the
   ring's tail is an oscillation.  Hash-consed best-route snapshots
   (Speaker.loc_fingerprint rides the encode cache) keep the per-change
   cost to a couple of hash mixes. *)

let window = 512

type pstate = {
  fp : (int, int) Hashtbl.t;  (* asn -> current fingerprint, 0 absent *)
  ring : int array;           (* global digests, newest at (n-1) mod window *)
  times : float array;
  mutable combined : int;
  mutable n : int;            (* total changes observed *)
}

type detector = {
  states : (Prefix.t, pstate) Hashtbl.t;
  net : Network.t;
}

let mix asn fp = Hashtbl.hash (asn, fp)

let attach net =
  let d = { states = Hashtbl.create 8; net } in
  Network.set_change_feed net
    (Some
       (fun ~asn ~prefix ~at ~fingerprint ->
         let st =
           match Hashtbl.find_opt d.states prefix with
           | Some st -> st
           | None ->
             let st =
               { fp = Hashtbl.create 16;
                 ring = Array.make window 0;
                 times = Array.make window 0.;
                 combined = 0;
                 n = 0 }
             in
             Hashtbl.replace d.states prefix st;
             st
         in
         let a = Asn.to_int asn in
         ( match Hashtbl.find_opt st.fp a with
           | Some old -> st.combined <- st.combined - mix a old
           | None -> () );
         if fingerprint = 0 then Hashtbl.remove st.fp a
         else begin
           Hashtbl.replace st.fp a fingerprint;
           st.combined <- st.combined + mix a fingerprint
         end;
         st.ring.(st.n mod window) <- st.combined;
         st.times.(st.n mod window) <- at;
         st.n <- st.n + 1));
  d

let detach d = Network.set_change_feed d.net None

type cycle = {
  period : int;       (* in Loc-RIB change events for the prefix *)
  time_period : float; (* the same period in simulated seconds *)
  last_at : float;    (* when the prefix last changed *)
}

(* Smallest p such that the newest digests repeat with period p over a
   verification span of at least 2p (and at most 4p, tolerating an
   aperiodic transient further back). *)
let find_cycle st =
  let avail = min st.n window in
  if avail < 6 then None
  else begin
    let get i = st.ring.((st.n - 1 - i) mod window) in
    let at i = st.times.((st.n - 1 - i) mod window) in
    let rec try_p p =
      if p > avail / 3 then None
      else begin
        let span = min (avail - p) (4 * p) in
        if span < 2 * p then try_p (p + 1)
        else begin
          let ok = ref true in
          for i = 0 to span - 1 do
            if get i <> get (i + p) then ok := false
          done;
          if !ok then
            Some { period = p; time_period = at 0 -. at p; last_at = at 0 }
          else try_p (p + 1)
        end
      end
    in
    try_p 1
  end

let cycles d ~end_time =
  Hashtbl.fold
    (fun prefix st acc ->
      match find_cycle st with
      | Some c
        when end_time -. c.last_at <= 4. *. Float.max c.time_period 1.0 ->
        (prefix, c) :: acc
      | _ -> acc)
    d.states []
  |> List.sort (fun (a, _) (b, _) -> Prefix.compare a b)

(* ------------------------------------------------------------------ *)
(* Classification                                                      *)
(* ------------------------------------------------------------------ *)

type verdict =
  | Converged of { at : float }
  | Oscillating of {
      period : int;
      time_period : float;
      prefixes : Prefix.t list;
    }
  | Censored of { events : int }

let default_budget = 60_000

let classify ?(budget = default_budget) net =
  let d = attach net in
  let stats = Network.run ~max_events:budget net in
  detach d;
  let verdict =
    if not stats.Network.exhausted then
      Converged { at = stats.Network.converged_at }
    else
      let end_time = Event_queue.now (Network.queue net) in
      match cycles d ~end_time with
      | [] -> Censored { events = stats.Network.events }
      | (_, c0) :: _ as cs ->
        Oscillating
          { period = c0.period;
            time_period = c0.time_period;
            prefixes = List.map fst cs }
  in
  (verdict, stats)

(* ------------------------------------------------------------------ *)
(* The stability report                                                *)
(* ------------------------------------------------------------------ *)

type case = {
  name : string;
  prefix : Prefix.t;
  build : unit -> Network.t;
  spec : pref_spec option;     (* for the static dispute-wheel check *)
  expect_divergence : bool;    (* documented expectation, pinned by tests *)
}

type row = {
  scenario : string;
  damping : bool;
  verdict : verdict;
  events : int;
  messages : int;
  decision_changes : int;
  withdrawals : int;           (* policy churn shows up as withdrawals *)
  suppressions : int;
  reuses : int;
  suppressed_at_end : int;     (* (speaker, peer) pairs still suppressed *)
  wheel : int list option;
}

type report = {
  budget : int;
  rows : row list;
}

(* Damping parameters tuned for policy churn: attribute changes and
   withdrawals a few simulated seconds apart must be able to cross the
   suppression threshold within the budget. *)
let gadget_damping =
  { Damping.half_life = 60.;
    suppress_threshold = 1500.;
    reuse_threshold = 700.;
    withdraw_penalty = 1000.;
    attr_change_penalty = 600.;
    max_penalty = 6000. }

let suppressed_at_end net prefix =
  let now = Event_queue.now (Network.queue net) in
  let asns = Network.asns net in
  List.fold_left
    (fun acc a ->
      let sp = Network.speaker net a in
      List.fold_left
        (fun acc b ->
          if Asn.equal a b then acc
          else if Speaker.suppressed sp ~now (Network.peer_of net b) prefix
          then acc + 1
          else acc)
        acc asns)
    0 asns

let run_case ~budget ~damping case =
  let net = case.build () in
  (match damping with None -> () | Some p -> Network.set_damping net (Some p));
  let verdict, stats = classify ~budget net in
  { scenario = case.name;
    damping = Option.is_some damping;
    verdict;
    events = stats.Network.events;
    messages = stats.Network.messages;
    decision_changes = Network.counter_total net "decision.changes";
    withdrawals = stats.Network.withdrawals;
    suppressions = Network.counter_total net "damping.suppressed";
    reuses = Network.counter_total net "damping.reused";
    suppressed_at_end = suppressed_at_end net case.prefix;
    wheel = Option.bind case.spec dispute_wheel }

let run_cases ?(budget = default_budget) cases =
  { budget;
    rows =
      List.concat_map
        (fun c ->
          [ run_case ~budget ~damping:None c;
            run_case ~budget ~damping:(Some gadget_damping) c ])
        cases }

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let verdict_label = function
  | Converged _ -> "converged"
  | Oscillating _ -> "oscillating"
  | Censored _ -> "censored"

let censored = function Censored _ -> true | _ -> false

let row_to_snapshot r =
  let open Snapshot in
  let verdict_fields =
    match r.verdict with
    | Converged { at } ->
      [ ("converged_at", Float at); ("period", Null); ("time_period", Null);
        ("prefixes", List []) ]
    | Oscillating { period; time_period; prefixes } ->
      [ ("converged_at", Null);
        ("period", Int period);
        ("time_period", Float time_period);
        ("prefixes", List (List.map (fun p -> String (Prefix.to_string p)) prefixes)) ]
    | Censored { events } ->
      [ ("converged_at", Null); ("period", Null); ("time_period", Null);
        ("prefixes", List []); ("censored_events", Int events) ]
  in
  Obj
    ( [ ("scenario", String r.scenario);
        ("damping", Bool r.damping);
        ("verdict", String (verdict_label r.verdict));
        ("censored", Bool (censored r.verdict)) ]
    @ verdict_fields
    @ [ ("events", Int r.events);
        ("messages", Int r.messages);
        ("decision_changes", Int r.decision_changes);
        ("withdrawals", Int r.withdrawals);
        ("suppressions", Int r.suppressions);
        ("reuses", Int r.reuses);
        ("suppressed_at_end", Int r.suppressed_at_end);
        ("dispute_wheel",
         match r.wheel with
         | None -> Null
         | Some ns -> List (List.map (fun n -> Int n) ns)) ] )

let to_snapshot rep =
  Snapshot.Obj
    [ ("budget", Snapshot.Int rep.budget);
      ("rows", Snapshot.List (List.map row_to_snapshot rep.rows)) ]

let pp_verdict ppf = function
  | Converged { at } -> Format.fprintf ppf "converged at t=%.1f" at
  | Oscillating { period; time_period; prefixes } ->
    Format.fprintf ppf "OSCILLATING period=%d changes (%.1fs) prefixes=[%s]"
      period time_period
      (String.concat "; " (List.map Prefix.to_string prefixes))
  | Censored { events } ->
    Format.fprintf ppf "censored after %d events (no cycle found)" events

let pp_row ppf r =
  Format.fprintf ppf
    "%-16s damping=%-5b %a@,                 msgs=%d changes=%d withdrawals=%d suppressed=%d reused=%d suppressed_now=%d wheel=%s"
    r.scenario r.damping pp_verdict r.verdict r.messages r.decision_changes
    r.withdrawals r.suppressions r.reuses r.suppressed_at_end
    ( match r.wheel with
      | None -> "none"
      | Some ns -> "[" ^ String.concat "->" (List.map string_of_int ns) ^ "]" )

let pp_report ppf rep =
  Format.fprintf ppf "@[<v>stability report (budget %d events/run)@," rep.budget;
  List.iter (fun r -> Format.fprintf ppf "%a@," pp_row r) rep.rows;
  Format.fprintf ppf "@]"
