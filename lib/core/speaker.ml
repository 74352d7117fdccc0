open Dbgp_types
module Metrics = Dbgp_obs.Metrics
module Trace = Dbgp_obs.Trace

type msg = Announce of Ia.t | Withdraw of Prefix.t

type neighbor = {
  peer : Peer.t;
  relationship : Dbgp_bgp.Policy.relationship;
  import : Filters.t;
  export : Filters.t;
  dbgp_capable : bool;
  same_island : bool;
}

let neighbor ?(import = Filters.accept) ?(export = Filters.accept)
    ?(dbgp_capable = true) ?(same_island = false) ~relationship peer =
  { peer; relationship; import; export; dbgp_capable; same_island }

type config = {
  asn : Asn.t;
  addr : Ipv4.t;
  island : Island_id.t option;
  island_members : Asn.t list;
  hide_island_interior : bool;
  passthrough : bool;
  global_import : Filters.t;
  global_export : Filters.t;
}

let config ?island ?(island_members = []) ?(hide_island_interior = false)
    ?(passthrough = true) ?(global_import = Filters.accept)
    ?(global_export = Filters.accept) ~asn ~addr () =
  { asn; addr; island; island_members; hide_island_interior; passthrough;
    global_import; global_export }

type chosen = { candidate : Decision_module.candidate; outgoing : Ia.t }

(* A Loc-RIB route: the peer it was learned from ([None]: originated here),
   the selected (post-import) attribute set and the set it is
   re-advertised with.  The prefix is the Loc-RIB key, so {!chosen} is
   rebuilt from these on demand. *)
type route = {
  via : Peer.t option;
  cand : Attr_table.entry;
  out : Attr_table.entry;
}

(* A neighbor as the egress edge sees it: its Adj-RIB-Out handle (peer
   group + advertised table) and its stage-7 filter chain, both fixed
   when the neighbor is added — the config is immutable, so the chain
   never needs rebuilding.  [from] is the neighbor's [Some peer], made
   once here and shared by every candidate learned from it, so a
   decision run allocates no option box per candidate.  [rep] holds when
   the neighbor is its group's first member in ascending peer order —
   the one whose service evaluates the group in a fan-out (see
   {!group_reps}). *)
type egress = {
  nbr : neighbor;
  out : Adj_rib_out.handle;
  chain : Filters.t;
  from : Peer.t option;
  mutable rep : bool;
}

module Damping = Dbgp_bgp.Flap_damping

type t = {
  cfg : config;
  modules : Decision_module.t Int_tbl.t; (* by Protocol_id.to_int *)
  (* Activation ranges, longest first, one per exact prefix: a scenario
     sets a few, a benchmark none. *)
  mutable active : (Prefix.t * Protocol_id.t) list;
  (* The neighbors, ascending by peer; [reps] the first member of each
     peer group among them, ascending, or empty after the neighbor set
     changed. *)
  mutable nbrs : egress array;
  mutable reps : egress array;
  (* The three-stage RIB pipeline of Figure 5.  [rib_in]: per-(prefix,
     peer) post-global-import attribute sets plus graceful-restart stale
     marks.
     [loc]: selected best routes with a lazily rebuilt FIB index.
     [rib_out]: peer groups and per-peer advertised state.  [sched]: the
     dirty-prefix work queue between stages — ingest marks, {!flush}
     drains. *)
  rib_in : Attr_table.entry Adj_rib_in.t;
  loc : route Loc_rib.t;
  rib_out : Adj_rib_out.t;
  sched : Pipeline.t;
  local : Attr_table.entry Prefix.Tbl.t;  (* locally originated routes *)
  (* Resilience state.  [flap_state]: RFC 2439 per-(peer,prefix)
     damping penalties, one prefix table per peer that has flapped;
     suppressed routes are excluded from selection.
     [reuse_events]: (prefix, time) pairs the runtime must re-evaluate
     at, drained via {!take_reuse_events}. *)
  mutable damping : Damping.params option;
  mutable flap_state : Damping.t Prefix.Tbl.t Peer.Map.t;
  mutable reuse_events : (Prefix.t * float) list;
  (* Observability.  Every speaker owns a metrics registry and an event
     trace; the decision-path instruments are cached here because they
     are hit on every [process] call. *)
  obs : Metrics.t;
  trace : Trace.t;
  c_runs : Metrics.counter;
  c_changes : Metrics.counter;
  c_export_hits : Metrics.counter;
  c_export_misses : Metrics.counter;
  g_last_change : Metrics.gauge;
  c_updates_rx : Metrics.counter;
  c_withdrawals_rx : Metrics.counter;
  c_duplicates : Metrics.counter;
  c_rejected : Metrics.counter;
  c_reused : Metrics.counter;
  (* Stage-1 ingress chain (loop rejection then global import), fixed at
     construction — composing it per message allocated a closure on
     every announce. *)
  ingress : Filters.t;
  (* Generation counter for anything that changes how outgoing IAs are
     built (module set, per-prefix active protocol).  Bumped by
     {!add_module}/{!set_active}; the caches below are valid only for
     the generation they were filled in. *)
  mutable gen : int;
  mutable contrib_cache : (int * Protocol_id.t * (Ia.t -> Ia.t) list) option;
  mutable supported_cache : (int * Protocol_id.Set.t) option;
  (* Fired from [process] whenever the Loc-RIB entry for a prefix
     actually changes — the stability detector's per-prefix change
     feed. *)
  mutable change_hook : (now:float -> Prefix.t -> unit) option;
  (* Relationship-keyed export gate, evaluated before the per-neighbor
     route-map filter.  Defaults to Gao-Rexford valley-free; the
     adversary layer swaps in [Policy.export_all] to model a route
     leak. *)
  mutable export_rule : Dbgp_bgp.Policy.export_rule;
  (* Decision reuse within one drain.  [stock] is the BGP module made
     at construction; [reusable] holds while it is the only module and
     every neighbor imports with [Filters.accept], so a run's result
     depends on its prefix only through the prefix's Adj-RIB-In row —
     kept current by {!add_neighbor}, {!add_module} and teardown.
     [last_row] is the row the drain's previous run selected from ([]:
     nothing to reuse, also after a run with a local route), made under
     [last_gen] and [last_active], and [last_route] its result. *)
  stock : Decision_module.t;
  mutable reusable : bool;
  mutable last_row : (Peer.t * Attr_table.entry) list;
  mutable last_gen : int;
  mutable last_active : Protocol_id.t;
  mutable last_route : route option;
}

let create cfg =
  let modules = Int_tbl.create 1 in
  let m = Decision_module.bgp () in
  Int_tbl.replace modules (Protocol_id.to_int m.Decision_module.protocol) m;
  let obs = Metrics.create () in
  { cfg;
    modules;
    active = [];
    nbrs = [||];
    reps = [||];
    rib_in = Adj_rib_in.create ();
    loc =
      Loc_rib.create
        ~next_hop:(fun r -> Option.map (fun p -> p.Peer.addr) r.via)
        ();
    rib_out = Adj_rib_out.create ();
    sched = Pipeline.create obs;
    local = Prefix.Tbl.create 1;
    damping = None;
    flap_state = Peer.Map.empty;
    reuse_events = [];
    obs;
    trace = Trace.create ();
    c_runs = Metrics.counter obs "decision.runs";
    c_changes = Metrics.counter obs "decision.changes";
    c_export_hits = Metrics.counter obs "pipeline.export_cache.hits";
    c_export_misses = Metrics.counter obs "pipeline.export_cache.misses";
    g_last_change = Metrics.gauge obs "decision.last_change_at";
    c_updates_rx = Metrics.counter obs "updates.received";
    c_withdrawals_rx = Metrics.counter obs "withdrawals.received";
    c_duplicates = Metrics.counter obs "updates.duplicate";
    c_rejected = Metrics.counter obs "import.rejected";
    c_reused = Metrics.counter obs "decision.reused";
    ingress = Filters.compose Filters.reject_loops cfg.global_import;
    gen = 0;
    contrib_cache = None;
    supported_cache = None;
    change_hook = None;
    export_rule = Dbgp_bgp.Policy.valley_free;
    stock = m;
    reusable = true;
    last_row = [];
    last_gen = 0;
    last_active = Protocol_id.bgp;
    last_route = None }

let asn t = t.cfg.asn
let addr t = t.cfg.addr
let island_of t = t.cfg.island
let metrics t = t.obs
let trace t = t.trace

let bump t name = Metrics.incr (Metrics.counter t.obs name)

let my_asn t = Asn.to_int t.cfg.asn

(* Refresh [reusable] after the module set or the neighbor set changed. *)
let stock_stages t =
  t.reusable <-
    Int_tbl.length t.modules = 1
    && (match Int_tbl.find_opt t.modules (Protocol_id.to_int Protocol_id.bgp) with
        | Some m -> m == t.stock
        | None -> false)
    && Array.for_all (fun e -> e.nbr.import == Filters.accept) t.nbrs

let add_module t (m : Decision_module.t) =
  Int_tbl.replace t.modules (Protocol_id.to_int m.protocol) m;
  t.gen <- t.gen + 1;
  stock_stages t

let supported t =
  match t.supported_cache with
  | Some (g, s) when g = t.gen -> s
  | _ ->
    let s =
      Int_tbl.fold
        (fun _ (m : Decision_module.t) acc -> Protocol_id.Set.add m.protocol acc)
        t.modules Protocol_id.Set.empty
    in
    t.supported_cache <- Some (t.gen, s);
    s

let set_active t prefix proto =
  if not (Int_tbl.mem t.modules (Protocol_id.to_int proto)) then
    invalid_arg "Speaker.set_active: no module registered for protocol"
  else begin
    let len = Prefix.length prefix in
    let rec place = function
      | ((r, _) as range) :: rest when Prefix.length r >= len ->
        if Prefix.equal r prefix then (prefix, proto) :: rest
        else range :: place rest
      | rest -> (prefix, proto) :: rest
    in
    t.active <- place t.active;
    t.gen <- t.gen + 1
  end

(* Top-level recursion: no closure per decision run, and the usual
   empty list answers at once. *)
let rec first_covering prefix = function
  | [] -> Protocol_id.bgp
  | (r, proto) :: rest ->
    if Prefix.subsumes r prefix then proto else first_covering prefix rest

let active_for t prefix = first_covering prefix t.active

let group_key_of (n : neighbor) =
  { Adj_rib_out.relationship = n.relationship;
    dbgp_capable = n.dbgp_capable;
    same_island = n.same_island;
    export = n.export }

(* The stage-7 egress chain toward [n]: island processing, global then
   per-neighbor export filter, legacy downgrade.  Depends only on the
   neighbor's group key and the immutable config, so every member of a
   group computes the same result.  Accepting stages are left out. *)
let egress_chain cfg (n : neighbor) : Filters.t =
  let island_egress =
    match cfg.island with
    | Some island when not n.same_island ->
      let members =
        if cfg.island_members = [] then [ cfg.asn ] else cfg.island_members
      in
      if cfg.hide_island_interior then Filters.abstract_island ~island ~members
      else Filters.declare_membership ~island ~members
    | _ -> Filters.accept
  in
  let downgrade =
    if n.dbgp_capable then Filters.accept
    else
      Filters.compose
        (Filters.keep_only (Protocol_id.Set.singleton Protocol_id.bgp))
        (fun ia -> Some { ia with Ia.membership = [] })
  in
  match
    List.filter
      (fun f -> f != Filters.accept)
      [ island_egress; cfg.global_export; n.export; downgrade ]
  with
  | [] -> Filters.accept
  | f :: rest -> List.fold_left Filters.compose f rest

(* The index of [peer] in [t.nbrs], or [-(i + 1)] when it is absent and
   belongs at index [i].  The search is a top-level function so that a
   lookup, made once per candidate in a decision run, allocates no
   closure. *)
let rec search a peer lo hi =
  if lo >= hi then -(lo + 1)
  else
    let mid = (lo + hi) / 2 in
    let c = Peer.compare a.(mid).nbr.peer peer in
    if c = 0 then mid else if c < 0 then search a peer (mid + 1) hi else search a peer lo mid

let locate t peer = search t.nbrs peer 0 (Array.length t.nbrs)

let find_nbr t peer =
  let i = locate t peer in
  if i >= 0 then Some t.nbrs.(i) else None

let add_neighbor t n =
  let out = Adj_rib_out.join t.rib_out ~peer:n.peer (group_key_of n) in
  let e =
    { nbr = n; out; chain = egress_chain t.cfg n; from = Some n.peer; rep = false }
  in
  let i = locate t n.peer and a = t.nbrs in
  if i >= 0 then a.(i) <- e
  else begin
    let i = -(i + 1) in
    t.nbrs <-
      Array.init (Array.length a + 1) (fun j ->
          if j < i then a.(j) else if j = i then e else a.(j - 1))
  end;
  t.reps <- [||];
  stock_stages t

let neighbors t = Array.fold_right (fun e acc -> e.nbr :: acc) t.nbrs []
let has_neighbor t peer = locate t peer >= 0
let export_group_of t peer = Adj_rib_out.group_of t.rib_out ~peer

let module_for t proto =
  match Int_tbl.find_opt t.modules (Protocol_id.to_int proto) with
  | Some m -> m
  | None -> Int_tbl.find t.modules (Protocol_id.to_int Protocol_id.bgp)

(* Relationship-keyed export gate: valley-free by default, swappable so
   the adversary layer can model a leaking AS. *)
let set_export_rule t rule = t.export_rule <- rule
let export_rule t = t.export_rule

let learned_relationship t from =
  match from with
  | None -> None
  | Some p ->
    Option.map (fun e -> e.nbr.relationship) (find_nbr t p)

(* ------------------------- flap damping ------------------------- *)

let set_damping t params =
  t.damping <- Option.map Damping.validate params;
  if t.damping = None then t.flap_state <- Peer.Map.empty

let take_reuse_events t =
  let evs = List.rev t.reuse_events in
  t.reuse_events <- [];
  evs

let flap_state_of t peer prefix =
  match Peer.Map.find_opt peer t.flap_state with
  | None -> None
  | Some states -> Prefix.Tbl.find_opt states prefix

let has_flap_state t peer = Peer.Map.mem peer t.flap_state

let suppressed t ~now peer prefix =
  match t.damping with
  | None -> false
  | Some p -> (
    match flap_state_of t peer prefix with
    | None -> false
    | Some st -> Damping.is_suppressed p st ~now )

(* Charge a damping penalty; when this crosses into suppression, queue a
   reuse event so the runtime re-runs the decision process once the
   penalty has decayed below the reuse threshold. *)
let note_flap t ~now peer prefix amount =
  match t.damping with
  | None -> ()
  | Some p ->
    let st =
      match flap_state_of t peer prefix with
      | Some st -> st
      | None ->
        let st = Damping.create () in
        let states =
          match Peer.Map.find_opt peer t.flap_state with
          | Some states -> states
          | None ->
            let states = Prefix.Tbl.create 1 in
            t.flap_state <- Peer.Map.add peer states t.flap_state;
            states
        in
        Prefix.Tbl.replace states prefix st;
        st
    in
    let was = Damping.is_suppressed p st ~now in
    Damping.penalize p st ~now amount;
    if Damping.is_suppressed p st ~now && not was then begin
      let reuse_at = now +. Damping.time_to_reuse p st ~now in
      bump t "damping.suppressed";
      Trace.emit t.trace ~at:now
        (Trace.Damping_suppress
           { asn = my_asn t;
             peer = Asn.to_int peer.Peer.asn;
             prefix = Prefix.to_int prefix;
             reuse_at });
      t.reuse_events <- (prefix, reuse_at) :: t.reuse_events
    end

let withdraw_penalty t =
  match t.damping with Some p -> p.Damping.withdraw_penalty | None -> 0.

let attr_change_penalty t =
  match t.damping with Some p -> p.Damping.attr_change_penalty | None -> 0.

(* ------------------------- graceful restart ------------------------- *)

let stale_count t = Adj_rib_in.stale_count t.rib_in
let is_stale t peer prefix = Adj_rib_in.is_stale t.rib_in ~peer prefix
let has_stale t peer = Adj_rib_in.has_stale t.rib_in ~peer

(* RFC 4724-style restart: keep the peer's routes (still candidates, so
   forwarding continues) but mark them stale.  A fresh announcement or
   withdrawal from the returning peer clears the mark; {!flush_stale}
   drops whatever is still stale when the restart window closes. *)
let peer_down_graceful ?(now = 0.) t peer =
  let routes = Adj_rib_in.mark_stale t.rib_in ~peer in
  if routes > 0 then begin
    Metrics.incr ~by:routes (Metrics.counter t.obs "restart.stale_marked");
    Trace.emit t.trace ~at:now
      (Trace.Restart_phase
         { asn = my_asn t;
           peer = Asn.to_int peer.Peer.asn;
           phase = "stale-marked";
           routes })
  end

(* The group-wide half of an emission: the relationship export rule and
   the egress chain, evaluated once per group per round (a miss) and
   stored as the group's result. *)
let evaluate t ~learned (outgoing : Ia.t) e =
  Metrics.incr t.c_export_misses;
  let out =
    if t.export_rule ~learned ~to_:e.nbr.relationship then e.chain outgoing
    else None
  in
  Adj_rib_out.set_result t.rib_out e.out out;
  out

(* The IA (if any) toward one neighbor for a route learned [from] and
   re-advertised as [outgoing], in the current Adj-RIB-Out round.  The
   first member of each group served in the round evaluates the group,
   unless {!quiet} already did on its behalf, and every later member
   reuses the result (a hit).  Split-horizon and the on-path check are
   per neighbor and run only when the group exports something. *)
let emission t ~learned ~from (outgoing : Ia.t) e =
  let out =
    if Adj_rib_out.evaluated t.rib_out e.out then begin
      if not e.rep then Metrics.incr t.c_export_hits;
      Adj_rib_out.result e.out
    end
    else evaluate t ~learned outgoing e
  in
  match out with
  | None -> None
  | Some _ ->
    let peer = e.nbr.peer in
    let is_sender =
      match from with Some p -> Peer.equal p peer | None -> false
    in
    let on_path =
      List.exists (Path_elem.mentions_asn peer.Peer.asn) outgoing.Ia.path_vector
      && not (Asn.equal peer.Peer.asn t.cfg.asn)
    in
    if is_sender || on_path then None else out

(* A fan-out toward a single neighbor (a sync) is a round of its own. *)
let emission_alone t prefix r e =
  Adj_rib_out.next_round t.rib_out;
  emission t ~learned:(learned_relationship t r.via) ~from:r.via
    (Attr_table.route r.out prefix) e

(* Send [o] to the neighbor, or withdraw what it was previously sent
   when it gets nothing; the message is consed onto [acc]. *)
let send e prefix o acc =
  match o with
  | Some ia ->
    (* Record the group evaluation's own option box — no per-route
       [Some] of the Adj-RIB-Out's own. *)
    Adj_rib_out.record e.out prefix o;
    (e.nbr.peer, Announce ia) :: acc
  | None ->
    if Adj_rib_out.advertised e.out prefix then begin
      Adj_rib_out.record e.out prefix None;
      (e.nbr.peer, Withdraw prefix) :: acc
    end
    else acc

(* The first member of each group, ascending, recomputed after the
   neighbor set changed; it also refreshes every [rep] flag.  A speaker
   with neighbors has at least one group, so an empty [reps] beside a
   non-empty [nbrs] means "stale". *)
let group_reps t =
  if Array.length t.reps = 0 && Array.length t.nbrs > 0 then begin
    let seen = Hashtbl.create 8 in
    Array.iter
      (fun e ->
        let g = Adj_rib_out.group_id e.out in
        e.rep <- not (Hashtbl.mem seen g);
        if e.rep then Hashtbl.replace seen g ())
      t.nbrs;
    t.reps <- Array.of_list (List.filter (fun e -> e.rep) (Array.to_list t.nbrs))
  end;
  t.reps

(* Whether a fan-out of [outgoing] sends nothing because no neighbor
   holds a record and every group rejects the route: O(groups) instead
   of O(neighbors) at a speaker that exports nothing.  The groups are
   evaluated in the order the fan-out would reach them, so the counters
   and, should a filter raise, the Adj-RIB-Out end as the plain fan-out
   leaves them.  The check stops at the first group that exports;
   {!distribute} then serves every member, reusing the evaluations made
   here. *)
let quiet t ~learned outgoing =
  let reps = group_reps t in
  Adj_rib_out.holders t.rib_out = 0
  && Array.for_all (fun e -> evaluate t ~learned outgoing e = None) reps

(* Announce / withdraw [prefix]'s Loc-RIB route [best] to all
   neighbors, in ascending peer order: one round, so one evaluation per
   group. *)
let distribute t prefix best =
  match best with
  | None ->
    if Adj_rib_out.holders t.rib_out = 0 then []
    else
      List.rev (Array.fold_left (fun acc e -> send e prefix None acc) [] t.nbrs)
  | Some r ->
    Adj_rib_out.next_round t.rib_out;
    let learned = learned_relationship t r.via in
    (* One IA for every neighbor: the group result and the encode cache
       key on it physically. *)
    let outgoing = Attr_table.route r.out prefix in
    if quiet t ~learned outgoing then []
    else
      List.rev
        (Array.fold_left
           (fun acc e ->
             send e prefix (emission t ~learned ~from:r.via outgoing e) acc)
           [] t.nbrs)

(* ---------------- incremental table transfer ---------------- *)

(* The transport failed to deliver the last message for [prefix] toward
   [peer]: demote the Adj-RIB-Out record to unconfirmed (or leave a
   withdraw tombstone) so the next {!sync_peer} re-sends it.  The
   simulator calls this from every drop point — it plays the role TCP
   delivery failure plays for a real speaker. *)
let note_undelivered t peer prefix =
  Adj_rib_out.note_failed t.rib_out ~peer prefix

(* Route refresh: forget which of the peer's records are confirmed, so
   the next {!sync_peer} re-sends the whole table. *)
let unconfirm_peer t peer = Adj_rib_out.unconfirm t.rib_out ~peer

(* Incremental/streaming table transfer on session (re)establish: walk
   the Loc-RIB in cursor order and re-send only routes whose current
   emission differs from the peer's confirmed Adj-RIB-Out record — a
   route the peer provably already holds is skipped.  On the final
   chunk, records with no backing Loc-RIB route (withdraw tombstones and
   entries for routes dropped while the session was down) are withdrawn.
   Degenerates to a full-table send when no records exist (a
   non-graceful teardown dropped them), which is exactly when the peer
   kept nothing either. *)
let sync_peer ?(limit = max_int) ?cursor t peer =
  match find_nbr t peer with
  | None -> ([], None)
  | Some e ->
    let out = ref [] in
    let sent = ref 0 and skipped = ref 0 and withdrawn = ref 0 in
    let (), next =
      Loc_rib.fold_range t.loc ~above:cursor ~limit
        ~f:(fun prefix r () ->
          match emission_alone t prefix r e with
          | Some ia as o -> (
            match Adj_rib_out.find e.out prefix with
            | Some (Some prev, true) when Ia.equal prev ia -> incr skipped
            | _ ->
              out := send e prefix o !out;
              incr sent )
          | None ->
            if Adj_rib_out.advertised e.out prefix then begin
              Adj_rib_out.record e.out prefix None;
              out := (peer, Withdraw prefix) :: !out;
              incr withdrawn
            end)
        ~init:()
    in
    if next = None then
      List.iter
        (fun prefix ->
          Adj_rib_out.record e.out prefix None;
          out := (peer, Withdraw prefix) :: !out;
          incr withdrawn)
        (Adj_rib_out.unbacked e.out ~backed:(Loc_rib.mem t.loc));
    if !sent > 0 then
      Metrics.incr ~by:!sent (Metrics.counter t.obs "sync.sent");
    if !skipped > 0 then
      Metrics.incr ~by:!skipped (Metrics.counter t.obs "sync.skipped");
    if !withdrawn > 0 then
      Metrics.incr ~by:!withdrawn (Metrics.counter t.obs "sync.withdrawn");
    (List.rev !out, next)

(* End-of-RIB for an incremental transfer (RFC 4724 §3): the sync is
   complete, so any route from [peer] still stale was deliberately
   *skipped* as already-confirmed — clear the marks and keep the routes.
   Contrast {!flush_stale}, which closes an expired restart window by
   dropping what was never refreshed. *)
let end_of_rib ?(now = 0.) t peer =
  let routes = Adj_rib_in.unmark_stale t.rib_in ~peer in
  if routes > 0 then begin
    Metrics.incr ~by:routes (Metrics.counter t.obs "restart.retained");
    Trace.emit t.trace ~at:now
      (Trace.Restart_phase
         { asn = my_asn t;
           peer = Asn.to_int peer.Peer.asn;
           phase = "retained";
           routes })
  end;
  routes

(* Stages 2-6 of Figure 5 for [prefix] from its local route and its
   Adj-RIB-In row [learned]: the route to install, holding one reference
   on each of its two sets, or [None].  [now] is the simulation clock,
   needed only to evaluate flap-damping decay. *)
let select_route t ~now ~active m prefix local learned =
  let raw_candidates =
    let local =
      match local with
      | None -> []
      | Some e ->
        [ { Decision_module.from_peer = None; ia = Attr_table.route e prefix } ]
    in
    local
    @ List.filter_map
        (fun (peer, e) ->
          (* Damping: suppressed routes stay in the Adj-RIB-In but are
             invisible to selection until their penalty decays. *)
          if suppressed t ~now peer prefix then None
          else
            (* Per-neighbor then protocol-specific import filters,
               applied directly — [Filters.compose] would allocate a
               closure per candidate per run. *)
            let nbr = find_nbr t peer in
            let nbr_import =
              match nbr with Some e -> e.nbr.import | None -> Filters.accept
            in
            match nbr_import (Attr_table.route e prefix) with
            | None -> None
            | Some ia ->
              ( match m.Decision_module.import_filter ia with
                | None -> None
                | Some ia ->
                  let from_peer =
                    match nbr with Some e -> e.from | None -> Some peer
                  in
                  Some { Decision_module.from_peer; ia } ))
        learned
  in
  match m.Decision_module.select ~prefix raw_candidates with
  | None -> None
  | Some candidate ->
    (* Local origination advertises the IA as-is (the origin's own ASN is
       already its path vector); learned routes go through the factory. *)
    let outgoing =
      match candidate.Decision_module.from_peer with
      | None -> candidate.Decision_module.ia
      | Some _ ->
        let contributions =
          match t.contrib_cache with
          | Some (g, a, cs) when g = t.gen && Protocol_id.equal a active -> cs
          | _ ->
            let mods =
              Int_tbl.fold (fun _ dm acc -> dm :: acc) t.modules []
              |> List.sort (fun (a : Decision_module.t) b ->
                     Protocol_id.compare a.protocol b.protocol)
            in
            (* Active module contributes first, then other supported
               ones. *)
            let actives, others =
              List.partition
                (fun (dm : Decision_module.t) ->
                  Protocol_id.equal dm.protocol active)
                mods
            in
            let cs =
              List.map
                (fun (dm : Decision_module.t) ia -> dm.contribute ~me:t.cfg.asn ia)
                (actives @ others)
            in
            t.contrib_cache <- Some (t.gen, active, cs);
            cs
        in
        Factory.build ~passthrough:t.cfg.passthrough ~supported:(supported t)
          ~me:t.cfg.asn ~my_addr:t.cfg.addr ~contributions
          candidate.Decision_module.ia
    in
    ( match m.Decision_module.export_filter outgoing with
      | None -> None
      | Some outgoing ->
        (* The Loc-RIB route holds one reference on each of its two
           sets.  The selected set is the stored route's own unless an
           import filter rewrote it, so it is taken without hashing;
           the outgoing set is new to the table only when its build
           is — built IAs fan out to every neighbor, so collapsing
           equal builds is the big sharing win on transit speakers. *)
        let via = candidate.Decision_module.from_peer in
        let stored =
          match via with
          | None -> local
          | Some p ->
            List.find_map
              (fun (q, e) -> if Peer.equal p q then Some e else None)
              learned
        in
        let ia = candidate.Decision_module.ia in
        let cand =
          match stored with
          | Some e -> Attr_table.share_like e ia
          | None -> Attr_table.share ia
        in
        Some { via; cand; out = Attr_table.share_like cand outgoing } )

(* Whether two Adj-RIB-In rows are physically one: the same peers in
   the same order, each with the same entry. *)
let rec same_row a b =
  match (a, b) with
  | [], [] -> true
  | (p, e) :: a, (q, f) :: b -> (p == q || Peer.equal p q) && e == f && same_row a b
  | _ -> false

(* The drain's previous result, when it is this run's too: with stock
   stages, no damping, no local route and an unchanged module setup,
   {!select_route} reads the prefix only to re-point sets at it, so a
   physically identical row selects, builds and shares exactly what the
   previous run did.  The reused route takes its own reference on each
   set; [None] (run the full path) when either set has left the
   table. *)
let reused t ~active local learned =
  if
    t.reusable && learned != [] && Option.is_none local && Option.is_none t.damping
    && t.last_gen = t.gen
    && Protocol_id.equal t.last_active active
    && same_row t.last_row learned
  then
    match t.last_route with
    | None -> Some None
    | Some r as next ->
      if Attr_table.acquire r.cand then
        if Attr_table.acquire r.out then Some next
        else begin
          Attr_table.release r.cand;
          None
        end
      else None
  else None

(* Recompute the best path for [prefix] and install it, announcing any
   change.  Within a drain ([reuse]) a run may take the previous run's
   result (see {!reused}); it is counted, traced and distributed like
   any other. *)
let process ?(reuse = false) t ~now prefix =
  Metrics.incr t.c_runs;
  let active = active_for t prefix in
  let local = Prefix.Tbl.find_opt t.local prefix in
  let learned = Adj_rib_in.candidates t.rib_in prefix in
  let prev = Loc_rib.find t.loc prefix in
  let next =
    match if reuse then reused t ~active local learned else None with
    | Some next ->
      Metrics.incr t.c_reused;
      next
    | None ->
      let next = select_route t ~now ~active (module_for t active) prefix local learned in
      if reuse then begin
        t.last_row <- (if Option.is_none local then learned else []);
        t.last_gen <- t.gen;
        t.last_active <- active;
        t.last_route <- next
      end;
      next
  in
  let changed =
    match (prev, next) with
    | None, None -> false
    | Some a, Some b ->
      not
        ( Attr_table.same a.cand b.cand
        && a.via = b.via
        && Attr_table.same a.out b.out )
    | _ -> true
  in
  (* Reference discipline: a freshly built route acquired its references
     above.  If it replaces a stored route the old references drop; if
     it turns out equal to the stored route it is discarded and its own
     references drop. *)
  let drop r =
    Attr_table.release r.cand;
    Attr_table.release r.out
  in
  if changed then Option.iter drop prev else Option.iter drop next;
  if changed then begin
    Metrics.incr t.c_changes;
    Metrics.set t.g_last_change now;
    let best_via =
      match next with
      | None -> None
      | Some r -> Option.map (fun p -> Asn.to_int p.Peer.asn) r.via
    in
    Trace.emit t.trace ~at:now
      (Trace.Decision_run
         { asn = my_asn t;
           prefix = Prefix.to_int prefix;
           changed = true;
           best_via });
    ( match next with
      | None -> Loc_rib.remove t.loc prefix
      | Some r -> Loc_rib.set t.loc prefix r );
    match t.change_hook with
    | None -> distribute t prefix next
    | Some f ->
      f ~now prefix;
      distribute t prefix (Loc_rib.find t.loc prefix)
  end
  else []

(* --------------- stage 1: ingest, mark dirty, drain --------------- *)

(* Stage 1 for one announce whose ingress verdict is known: [None] when
   the chain rejected it, [Some e] when it accepted it as set [e], one
   reference already taken.  Returns [true] for a rejection. *)
let admit_route t ~now ~from prefix verdict =
  match verdict with
  | None ->
    Metrics.incr t.c_rejected;
    Trace.emit t.trace ~at:now
      (Trace.Import_rejected
         { asn = my_asn t; peer = Asn.to_int from.Peer.asn; prefix = Prefix.to_int prefix });
    (* A rejected IA acts as an implicit withdrawal of any previous
       route from this peer for the prefix. *)
    ( match Adj_rib_in.find t.rib_in ~peer:from prefix with
    | None -> ()
    | Some prev ->
      Attr_table.release prev;
      Adj_rib_in.remove t.rib_in ~peer:from prefix;
      Adj_rib_in.clear_stale t.rib_in ~peer:from prefix;
      note_flap t ~now from prefix (withdraw_penalty t);
      Pipeline.mark t.sched prefix );
    true
  | Some e ->
    ( match Adj_rib_in.find t.rib_in ~peer:from prefix with
    | Some prev when Attr_table.same prev e ->
      (* Duplicate delivery (session retransmit, route refresh): the
         stored route is byte-identical, so re-running the decision
         process or charging a flap penalty would amplify the
         duplicate.  Refreshing the stale mark is the only effect. *)
      Attr_table.release e;
      Metrics.incr t.c_duplicates;
      Adj_rib_in.clear_stale t.rib_in ~peer:from prefix
    | prev ->
      ( match prev with
        | Some p ->
          (* Re-advertisement with changed attributes is a flap too. *)
          Attr_table.release p;
          note_flap t ~now from prefix (attr_change_penalty t)
        | None -> () );
      Adj_rib_in.set t.rib_in ~peer:from prefix e;
      Adj_rib_in.clear_stale t.rib_in ~peer:from prefix;
      Pipeline.mark t.sched prefix );
    false

(* Absorb an update into the Adj-RIB-In and mark its prefix dirty when
   selection could be affected.  Returns [true] when global import
   policy rejected an announce; the decision process runs at the next
   {!flush}.  Accounting (received/duplicate/rejected counters,
   stale-mark clearing, flap penalties) happens here, at arrival time —
   exactly as the eager speaker did. *)
let ingest_msg t ~now ~from msg =
  match msg with
  | Withdraw prefix ->
    Metrics.incr t.c_withdrawals_rx;
    let prev = Adj_rib_in.find t.rib_in ~peer:from prefix in
    Option.iter Attr_table.release prev;
    Adj_rib_in.remove t.rib_in ~peer:from prefix;
    (* Hearing from the peer at all proves it is back: its stale mark for
       this prefix is resolved (by removal). *)
    Adj_rib_in.clear_stale t.rib_in ~peer:from prefix;
    if Option.is_some prev then
      note_flap t ~now from prefix (withdraw_penalty t);
    Pipeline.mark t.sched prefix;
    false
  | Announce ia ->
    Metrics.incr t.c_updates_rx;
    (* Stage 1: global import filtering, loop rejection first.  The set
       is identified here, once: the Adj-RIB-In stores its entry (one
       reference), and equal sets across peers and prefixes are one
       block. *)
    ( match t.ingress ia with
      | None -> admit_route t ~now ~from ia.Ia.prefix None
      | Some ia -> admit_route t ~now ~from ia.Ia.prefix (Some (Attr_table.share ia)) )

(* The pipeline must never let an exception escape back into the session
   layer: a malformed or adversarial message can at worst damage its own
   route (RFC 7606's least-destructive-action principle), not tear down
   the speaker.  Anything a filter, decision module or factory throws is
   absorbed here and accounted as an internal error. *)
let absorb t ~now ~from exn =
  bump t "errors.internal";
  Trace.emit t.trace ~at:now
    (Trace.Rx_error
       { asn = my_asn t;
         peer = Asn.to_int from.Peer.asn;
         cls = "internal";
         stage = Errors.stage_name Errors.Pipeline;
         reason = Printexc.to_string exn })

(* [ingest], reporting an import rejection. *)
let admit t ~now ~from msg =
  try ingest_msg t ~now ~from msg
  with exn ->
    absorb t ~now ~from exn;
    false

let ingest ?(now = 0.) t ~from msg = ignore (admit t ~now ~from msg)

(* Stage 1 for a frame's routes; returns how many were rejected.  With
   the stock chain (loop rejection, then [Filters.accept]) a verdict
   reads only the path vector, and a frame's routes share their
   attribute fields physically: the chain runs and the set is shared
   once per run of such routes, and each further route takes one more
   reference.  A custom global import may read the prefix, so it sees
   every route.  Accounting stays per route. *)
let ingest_routes t ~now ~from routes =
  if t.cfg.global_import != Filters.accept then
    List.fold_left
      (fun n ia -> if admit t ~now ~from (Announce ia) then n + 1 else n)
      0 routes
  else begin
    let src = ref None and verdict = ref None in
    List.fold_left
      (fun n (ia : Ia.t) ->
        let rejected =
          try
            Metrics.incr t.c_updates_rx;
            let v =
              match !src with
              | Some s when Ia.shares_fields s ia -> (
                match !verdict with
                | Some e when not (Attr_table.acquire e) ->
                  verdict := Some (Attr_table.share ia);
                  !verdict
                | v -> v )
              | _ ->
                let v = Option.map Attr_table.share (t.ingress ia) in
                src := Some ia;
                verdict := v;
                v
            in
            admit_route t ~now ~from ia.Ia.prefix v
          with exn ->
            absorb t ~now ~from exn;
            false
        in
        if rejected then n + 1 else n)
      0 routes
  end

let pending t = Pipeline.pending t.sched

(* A drain starts and ends with nothing to reuse: between drains the
   Adj-RIB-In and the module setup may change under the memo. *)
let forget_last t =
  t.last_row <- [];
  t.last_route <- None

let flush ?(now = 0.) t =
  forget_last t;
  let out = Pipeline.drain t.sched ~f:(fun p -> process ~reuse:true t ~now p) in
  forget_last t;
  out

let originate ?(now = 0.) t (ia : Ia.t) =
  (* Local originations share attribute sets too: a speaker originating
     a million prefixes with one policy holds one attribute block. *)
  let e = Attr_table.share ia in
  Option.iter Attr_table.release (Prefix.Tbl.find_opt t.local ia.Ia.prefix);
  Prefix.Tbl.replace t.local ia.Ia.prefix e;
  Pipeline.mark t.sched ia.Ia.prefix;
  flush ~now t

(* Stop originating [prefix]: the decision process re-runs without the
   local route, withdrawing it from every peer (or falling back to a
   learned route).  This is how a hijacker stands down. *)
let withdraw_origin ?(now = 0.) t prefix =
  match Prefix.Tbl.find_opt t.local prefix with
  | Some e ->
    Attr_table.release e;
    Prefix.Tbl.remove t.local prefix;
    Pipeline.mark t.sched prefix;
    flush ~now t
  | None -> []

let readvertise_all t =
  Loc_rib.fold (fun prefix r acc -> distribute t prefix (Some r) @ acc) t.loc []

(* ---------------- wire-level receive (RFC 7606 ladder) ---------------- *)

type rx_outcome =
  | Rx_accepted of int
  | Rx_filtered
  | Rx_withdrawn
  | Rx_session_error

let record_error t ~now ~from (e : Errors.t) =
  bump t (Errors.counter_name e.Errors.cls);
  Trace.emit t.trace ~at:now
    (Trace.Rx_error
       { asn = my_asn t;
         peer = Asn.to_int from.Peer.asn;
         cls = Errors.cls_name e.Errors.cls;
         stage = Errors.stage_name e.Errors.stage;
         reason = e.Errors.reason })

(* One wire receive for every frame layout: record the decode's
   verdicts, ingest its routes and withdraws, then drain once.  [defer]
   leaves the drain to the caller — the network flushes at MRAI
   boundaries.  Withdrawing through the ingest path (not
   [Adj_rib_in.remove] directly) keeps the resilience semantics: the
   peer's stale mark clears and, if a route existed, the damping
   penalty clock starts — a corrupted flap is still a flap. *)
let receive_wire ?(now = 0.) ?(defer = false) t ~from layout bytes =
  let d = Codec.decode_frame layout bytes in
  List.iter (record_error t ~now ~from) d.Codec.errors;
  let rejected = ingest_routes t ~now ~from d.Codec.routes in
  List.iter (fun p -> ingest ~now t ~from (Withdraw p)) d.Codec.withdrawn;
  let out =
    if defer then []
    else
      try flush ~now t
      with exn ->
        absorb t ~now ~from exn;
        []
  in
  let has cls = List.exists (fun (e : Errors.t) -> e.Errors.cls = cls) d.Codec.errors in
  let outcome =
    match (d.Codec.routes, layout) with
    | _ when has Errors.Session_reset -> Rx_session_error
    | [], (Codec.Withdraw | Codec.Withdraw_batch) -> Rx_withdrawn
    | [], _ when has Errors.Treat_as_withdraw -> Rx_withdrawn
    | routes, _ when routes <> [] && rejected = List.length routes -> Rx_filtered
    | _ -> Rx_accepted (List.length d.Codec.errors)
  in
  (outcome, out)

let frame = function
  | Announce ia -> Codec.Routes [ ia ]
  | Withdraw p -> Codec.Withdraws [ p ]

(* One message crosses the codec like any delivery: encoded as a
   one-prefix frame and received from the bytes. *)
let receive ?now t ~from msg =
  let f = frame msg in
  snd (receive_wire ?now t ~from (Codec.layout f) (Codec.encode_frame f))

(* ---------------- session teardown ---------------- *)

(* Shared teardown: drop the peer's pipeline state and recompute the
   affected prefixes.  [forget_flaps] distinguishes a link-level session
   loss (damping memory survives — a flapping link must not reset its
   own penalties) from administrative removal (everything goes). *)
let teardown ~forget_flaps ~now t peer =
  (* Every route the peer contributed leaves the Adj-RIB-In at once;
     drop their attribute-set references before the wholesale drop. *)
  List.iter
    (fun p ->
      Option.iter Attr_table.release (Adj_rib_in.find t.rib_in ~peer p))
    (Adj_rib_in.prefixes_of t.rib_in ~peer);
  let affected = Adj_rib_in.drop_peer t.rib_in ~peer in
  Adj_rib_out.leave t.rib_out ~peer;
  ( match locate t peer with
    | i when i >= 0 ->
      let a = t.nbrs in
      t.nbrs <-
        Array.init (Array.length a - 1) (fun j -> if j < i then a.(j) else a.(j + 1));
      t.reps <- [||];
      stock_stages t
    | _ -> () );
  if forget_flaps then t.flap_state <- Peer.Map.remove peer t.flap_state;
  List.iter (Pipeline.mark t.sched) affected;
  flush ~now t

let peer_down ?(now = 0.) t peer = teardown ~forget_flaps:false ~now t peer

let remove_neighbor ?(now = 0.) t peer =
  teardown ~forget_flaps:true ~now t peer

(* Close a graceful-restart window: drop every route from [peer] that is
   still stale (never refreshed) and recompute the affected prefixes. *)
let flush_stale ?(now = 0.) t peer =
  match Adj_rib_in.take_stale t.rib_in ~peer with
  | [] -> []
  | stale ->
    let routes = List.length stale in
    Metrics.incr ~by:routes (Metrics.counter t.obs "restart.flushed");
    Trace.emit t.trace ~at:now
      (Trace.Restart_phase
         { asn = my_asn t;
           peer = Asn.to_int peer.Peer.asn;
           phase = "flushed";
           routes });
    List.iter
      (fun p ->
        Option.iter Attr_table.release (Adj_rib_in.find t.rib_in ~peer p);
        Adj_rib_in.remove t.rib_in ~peer p;
        Pipeline.mark t.sched p)
      stale;
    flush ~now t

let any_suppressed t prefix =
  Peer.Map.exists
    (fun _peer states ->
      match Prefix.Tbl.find_opt states prefix with
      | Some st -> Damping.currently_suppressed st
      | None -> false)
    t.flap_state

let reevaluate ?(now = 0.) t prefix =
  let was_suppressed = any_suppressed t prefix in
  let out = process t ~now prefix in
  (* A reuse timer is armed when a route first crosses into suppression;
     if the penalty kept accruing afterwards the route can still be
     suppressed when that timer fires — re-arm it for the updated reuse
     time so the route is never suppressed forever.  One event at the
     earliest reuse time covers every still-suppressed peer state for
     the prefix (the reevaluate it triggers re-arms again if needed);
     arming one per peer state multiplies events exponentially under
     sustained churn, when several states stay suppressed across
     firings. *)
  ( match t.damping with
    | None -> ()
    | Some p ->
      let earliest =
        Peer.Map.fold
          (fun _peer states acc ->
            match Prefix.Tbl.find_opt states prefix with
            | Some st when Damping.is_suppressed p st ~now ->
              let at = now +. Damping.time_to_reuse p st ~now in
              (match acc with Some e -> Some (Float.min e at) | None -> Some at)
            | _ -> acc)
          t.flap_state None
      in
      match earliest with
      | Some at -> t.reuse_events <- (prefix, at) :: t.reuse_events
      | None -> () );
  (* The loop above decayed every damping state for [prefix]; a route
     that was suppressed on entry and no longer is has come back into
     service. *)
  if was_suppressed && not (any_suppressed t prefix) then begin
    bump t "damping.reused";
    Trace.emit t.trace ~at:now
      (Trace.Damping_reuse { asn = my_asn t; prefix = Prefix.to_int prefix })
  end;
  out

let chosen_of prefix r =
  { candidate =
      { Decision_module.from_peer = r.via;
        ia = Attr_table.route r.cand prefix };
    outgoing = Attr_table.route r.out prefix }

let best t prefix = Option.map (chosen_of prefix) (Loc_rib.find t.loc prefix)

let best_routes t =
  Loc_rib.fold (fun p r acc -> (p, chosen_of p r) :: acc) t.loc [] |> List.rev

let set_change_hook t hook = t.change_hook <- hook

(* A compact digest of the current Loc-RIB state for one prefix: the
   identity of the chosen route (selecting peer's ASN) mixed with the
   encoded bytes of the outgoing IA.  [Codec.encode_cached] makes this
   nearly free on the hot path — the same physical IA hits the encode
   cache — and hashing the wire bytes (OCaml hashes strings in full)
   means any attribute difference a receiver could observe changes the
   fingerprint.  No route maps to 0. *)
let loc_fingerprint t prefix =
  match Loc_rib.find t.loc prefix with
  | None -> 0
  | Some r ->
    let via = match r.via with None -> -1 | Some p -> Asn.to_int p.Peer.asn in
    let h = Hashtbl.hash (via, Codec.encode_cached (Attr_table.route r.out prefix)) in
    if h = 0 then 1 else h
let next_hop_of t dest = Loc_rib.next_hop t.loc dest
let adj_out t peer = Adj_rib_out.bindings t.rib_out ~peer
let adj_out_peers t = Adj_rib_out.peers t.rib_out
let has_adj_in t peer = Adj_rib_in.has_routes t.rib_in ~peer
let candidates_for t prefix =
  List.map
    (fun (p, e) -> (p, Attr_table.route e prefix))
    (Adj_rib_in.candidates t.rib_in prefix)

let iter_attr_refs t f =
  Adj_rib_in.iter t.rib_in (fun _ _ e -> f e);
  Prefix.Tbl.iter (fun _ e -> f e) t.local;
  Loc_rib.fold
    (fun _ r () ->
      f r.cand;
      f r.out)
    t.loc ()

module For_tests = struct
  let active_for = active_for

  let flap_penalty t ~now peer prefix =
    match (t.damping, flap_state_of t peer prefix) with
    | Some p, Some st -> Damping.penalty p st ~now
    | _ -> 0.
end
