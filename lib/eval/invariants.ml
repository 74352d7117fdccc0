open Dbgp_types
module Speaker = Dbgp_core.Speaker
module Ia = Dbgp_core.Ia
module Value = Dbgp_core.Value
module Network = Dbgp_netsim.Network
module Snapshot = Dbgp_obs.Snapshot

type violation =
  | Forwarding_loop of int
  | Route_via_down_link of int * int
  | Rib_fib_mismatch of int
  | Passthrough_mutated of int
  | Stale_leak of int * int
  | Orphan_adj_out of int * int
  | Orphan_adj_in of int * int
  | Orphan_flap of int * int
  | Orphan_stale of int * int
  | Origin_mismatch of int * int
  | Valley_export of int * int
  | Forged_island_descriptor of int
  | Forged_adjacency of int * int * int
  | Refcount_drift of int * int * int

type report = {
  speakers : int;
  with_route : int;
  violations : violation list;
}

(* Follow FIB next hops from [asn] toward [dest]; a revisited AS means a
   forwarding loop. *)
let walk_loops net ~dest asn =
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

let check ?expect_descriptor ~prefix ~dest net =
  let violations = ref [] in
  let flag v = violations := v :: !violations in
  let asns = Network.asns net in
  let with_route = ref 0 in
  List.iter
    (fun a ->
      let s = Network.speaker net a in
      let ai = Asn.to_int a in
      if walk_loops net ~dest a then flag (Forwarding_loop ai);
      let leaked = Speaker.stale_count s in
      if leaked > 0 then flag (Stale_leak (ai, leaked));
      (* Adj-RIB-Out state toward someone who is not a neighbor is never
         legitimate: every teardown path must erase it.  (Flap-damping
         state toward an ex-neighbor IS legitimate after a session loss —
         damping memory survives link flaps — so it is not flagged here;
         {!peer_clean} checks it after administrative removal.) *)
      List.iter
        (fun p ->
          if not (Speaker.has_neighbor s p) then
            flag (Orphan_adj_out (ai, Asn.to_int p.Dbgp_core.Peer.asn)))
        (Speaker.adj_out_peers s);
      match Speaker.best s prefix with
      | None -> ()
      | Some chosen ->
        incr with_route;
        let from_peer =
          chosen.Speaker.candidate.Dbgp_core.Decision_module.from_peer
        in
        ( match from_peer with
          | None ->
            (* Locally originated: nothing to forward through, and the
               descriptor is the origin's own by construction. *)
            ()
          | Some p ->
            ( match Network.asn_of_addr net p.Dbgp_core.Peer.addr with
              | Some peer_asn when not (Network.link_up net a peer_asn) ->
                flag (Route_via_down_link (ai, Asn.to_int peer_asn))
              | _ -> () );
            (* The FIB must forward exactly where the RIB decided. *)
            ( match Speaker.next_hop_of s dest with
              | Some nh when Ipv4.equal nh p.Dbgp_core.Peer.addr -> ()
              | _ -> flag (Rib_fib_mismatch ai) );
            ( match expect_descriptor with
              | None -> ()
              | Some (proto, field, value) ->
                let ia = chosen.Speaker.candidate.Dbgp_core.Decision_module.ia in
                ( match Ia.find_path_descriptor ~proto ~field ia with
                  | Some v when Value.equal v value -> ()
                  | _ -> flag (Passthrough_mutated ai) ) ) ))
    asns;
  { speakers = List.length asns;
    with_route = !with_route;
    violations = List.rev !violations }

let ok r = r.violations = []

(* ------------------- adversary detection predicates ------------------- *)

(* The origin an IA claims: the far end of its path vector ([-1] when
   there is no concrete origin AS, e.g. an island abstraction). *)
let claimed_origin ia =
  match List.rev (Ia.asns_on_path ia) with
  | o :: _ -> Asn.to_int o
  | [] -> -1

(* Origin mismatch versus ground-truth ownership: every speaker whose
   selected route for a prefix subsumed by [prefix] claims an origin
   other than [owner] is routing on a hijacked announcement.  Sub-prefix
   hijacks are caught because the forged more-specific is still subsumed
   by the owned aggregate. *)
let origin_mismatches net ~prefix ~owner =
  let owner_i = Asn.to_int owner in
  List.concat_map
    (fun a ->
      let s = Network.speaker net a in
      List.filter_map
        (fun (p, _) ->
          if not (Prefix.subsumes prefix p) then None
          else
            match Speaker.best s p with
            | None -> None
            | Some chosen ->
              let ia = chosen.Speaker.candidate.Dbgp_core.Decision_module.ia in
              let o = claimed_origin ia in
              if o <> owner_i then Some (Origin_mismatch (Asn.to_int a, o))
              else None)
        (Speaker.best_routes s))
    (Network.asns net)

(* Valley-free violation walk: a speaker advertising a peer- or
   provider-learned route toward another peer or provider has leaked it.
   Checked against what actually sits in each Adj-RIB-Out, so it catches
   the leak at the leaking AS — not just its downstream effects. *)
let valley_violations net =
  List.concat_map
    (fun a ->
      let s = Network.speaker net a in
      let nbrs = Speaker.neighbors s in
      let rel_of peer =
        List.find_map
          (fun (n : Speaker.neighbor) ->
            if Dbgp_core.Peer.equal n.Speaker.peer peer then
              Some n.Speaker.relationship
            else None)
          nbrs
      in
      List.concat_map
        (fun (n : Speaker.neighbor) ->
          match n.Speaker.relationship with
          | Dbgp_bgp.Policy.To_customer -> []
          | Dbgp_bgp.Policy.To_peer | Dbgp_bgp.Policy.To_provider ->
            List.filter_map
              (fun (prefix, _out) ->
                match Speaker.best s prefix with
                | None -> None
                | Some chosen -> (
                  match
                    chosen.Speaker.candidate.Dbgp_core.Decision_module.from_peer
                  with
                  | None -> None (* locally originated: exportable anywhere *)
                  | Some p -> (
                    match rel_of p with
                    | Some (Dbgp_bgp.Policy.To_peer | Dbgp_bgp.Policy.To_provider)
                      ->
                      Some
                        (Valley_export
                           ( Asn.to_int a,
                             Asn.to_int n.Speaker.peer.Dbgp_core.Peer.asn ))
                    | _ -> None )))
              (Speaker.adj_out s n.Speaker.peer))
        nbrs)
    (Network.asns net)

(* Island-descriptor ground truth: flag every speaker whose selected
   route for [prefix] carries an island descriptor ([island], [proto],
   [field]) differing from [expected] ([None] = no such descriptor was
   ever legitimately published, so its mere presence is a forgery). *)
let forged_island_descriptors net ~prefix ~island ~proto ~field ~expected =
  List.filter_map
    (fun a ->
      let s = Network.speaker net a in
      match Speaker.best s prefix with
      | None -> None
      | Some chosen ->
        let ia = chosen.Speaker.candidate.Dbgp_core.Decision_module.ia in
        let got = Ia.find_island_descriptor ~island ~proto ~field ia in
        let same =
          match (got, expected) with
          | None, None -> true
          | Some v, Some e -> Value.equal v e
          | _ -> false
        in
        if same then None else Some (Forged_island_descriptor (Asn.to_int a)))
    (Network.asns net)

(* AS-path plausibility against topology ground truth: every consecutive
   AS pair on a selected path must be an actual link.  Catches forged-path
   hijacks (the attacker claims adjacency to the true origin), which pure
   origin validation cannot.  Only sound when paths carry no island
   abstractions — an island on the path elides its interior, making
   honest consecutive ASNs non-adjacent. *)
let forged_adjacencies net ~prefix =
  let pair_linked a b = Network.link_up net a b in
  List.concat_map
    (fun a ->
      let s = Network.speaker net a in
      List.concat_map
        (fun (p, _) ->
          if not (Prefix.subsumes prefix p) then []
          else
            match Speaker.best s p with
            | None -> []
            | Some chosen ->
              let ia = chosen.Speaker.candidate.Dbgp_core.Decision_module.ia in
              let rec pairs = function
                | x :: (y :: _ as rest) ->
                  (if pair_linked x y then []
                   else
                     [ Forged_adjacency
                         (Asn.to_int a, Asn.to_int x, Asn.to_int y) ])
                  @ pairs rest
                | _ -> []
              in
              pairs (Ia.asns_on_path ia))
        (Speaker.best_routes s))
    (Network.asns net)

(* Candidate-level forgery scan: Adj-RIB-In holds what neighbors actually
   announced, before import policy has had a chance to reject it — so this
   is where a contained hijack remains visible at the first validating
   speaker (the selected-state predicates above see nothing when
   validation rejects the route everywhere).  Flags wrong claimed origins
   and topologically impossible adjacencies among the received candidates
   for [prefix]. *)
let forged_candidates net ~prefix ~owner =
  let owner_i = Asn.to_int owner in
  let pair_linked a b = Network.link_up net a b in
  List.concat_map
    (fun a ->
      let s = Network.speaker net a in
      let me = Asn.to_int a in
      List.concat_map
        (fun (_, ia) ->
          let origin_bad =
            let o = claimed_origin ia in
            if o <> owner_i then [ Origin_mismatch (me, o) ] else []
          in
          let rec pairs = function
            | x :: (y :: _ as rest) ->
              (if pair_linked x y then []
               else [ Forged_adjacency (me, Asn.to_int x, Asn.to_int y) ])
              @ pairs rest
            | _ -> []
          in
          origin_bad @ pairs (Ia.asns_on_path ia))
        (Speaker.candidates_for s prefix))
    (Network.asns net)

(* Post-teardown cleanliness for one (speaker, ex-peer) pair: after
   [Speaker.remove_neighbor] nothing of the peer may remain in any
   pipeline stage or in the damping memory. *)
(* Every stored route holds exactly one reference per attribute set it
   keeps, so each resident set's refcount must equal the references the
   speakers hold to it.  Only meaningful when these speakers are the
   only route holders in the domain: the harnesses reset the table when
   they build their network. *)
let refcounts speakers =
  Dbgp_core.Attr_table.audit (fun f ->
      List.iter (fun s -> Speaker.iter_attr_refs s f) speakers)
  |> List.map (fun (d : Dbgp_core.Attr_table.drift) ->
         Refcount_drift (d.slot, d.refcount, d.references))

let network_refcounts net =
  refcounts (List.map (Network.speaker net) (Network.asns net))

let peer_clean s peer =
  let ai = Asn.to_int (Speaker.asn s) in
  let pi = Asn.to_int peer.Dbgp_core.Peer.asn in
  let violations = ref [] in
  let flag v = violations := v :: !violations in
  if Speaker.has_adj_in s peer then flag (Orphan_adj_in (ai, pi));
  if List.exists (Dbgp_core.Peer.equal peer) (Speaker.adj_out_peers s) then
    flag (Orphan_adj_out (ai, pi));
  if Speaker.has_stale s peer then flag (Orphan_stale (ai, pi));
  if Speaker.has_flap_state s peer then flag (Orphan_flap (ai, pi));
  if Speaker.export_group_of s peer <> None then flag (Orphan_adj_out (ai, pi));
  List.rev !violations

let kind_name = function
  | Forwarding_loop _ -> "forwarding_loop"
  | Route_via_down_link _ -> "route_via_down_link"
  | Rib_fib_mismatch _ -> "rib_fib_mismatch"
  | Passthrough_mutated _ -> "passthrough_mutated"
  | Stale_leak _ -> "stale_leak"
  | Orphan_adj_out _ -> "orphan_adj_out"
  | Orphan_adj_in _ -> "orphan_adj_in"
  | Orphan_flap _ -> "orphan_flap"
  | Orphan_stale _ -> "orphan_stale"
  | Origin_mismatch _ -> "origin_mismatch"
  | Valley_export _ -> "valley_export"
  | Forged_island_descriptor _ -> "forged_island_descriptor"
  | Forged_adjacency _ -> "forged_adjacency"
  | Refcount_drift _ -> "refcount_drift"

let all_kinds =
  [ "forwarding_loop"; "route_via_down_link"; "rib_fib_mismatch";
    "passthrough_mutated"; "stale_leak"; "orphan_adj_out"; "orphan_adj_in";
    "orphan_flap"; "orphan_stale"; "origin_mismatch"; "valley_export";
    "forged_island_descriptor"; "forged_adjacency"; "refcount_drift" ]

let pp_violation ppf = function
  | Forwarding_loop a -> Format.fprintf ppf "forwarding loop at AS%d" a
  | Route_via_down_link (a, p) ->
    Format.fprintf ppf "AS%d routes via down link to AS%d" a p
  | Rib_fib_mismatch a -> Format.fprintf ppf "RIB/FIB mismatch at AS%d" a
  | Passthrough_mutated a ->
    Format.fprintf ppf "pass-through descriptor mutated at AS%d" a
  | Stale_leak (a, n) ->
    Format.fprintf ppf "%d stale routes leaked at AS%d" n a
  | Orphan_adj_out (a, p) ->
    Format.fprintf ppf "AS%d retains Adj-RIB-Out state toward non-neighbor AS%d"
      a p
  | Orphan_adj_in (a, p) ->
    Format.fprintf ppf "AS%d retains Adj-RIB-In routes from removed AS%d" a p
  | Orphan_flap (a, p) ->
    Format.fprintf ppf "AS%d retains flap-damping state for removed AS%d" a p
  | Orphan_stale (a, p) ->
    Format.fprintf ppf "AS%d retains stale marks for removed AS%d" a p
  | Origin_mismatch (a, o) ->
    Format.fprintf ppf "AS%d routes on an announcement claiming origin AS%d" a o
  | Valley_export (a, p) ->
    Format.fprintf ppf
      "AS%d leaks a peer/provider-learned route to peer/provider AS%d" a p
  | Forged_island_descriptor a ->
    Format.fprintf ppf "AS%d carries a forged island descriptor" a
  | Forged_adjacency (a, x, y) ->
    Format.fprintf ppf
      "AS%d routes on a path claiming nonexistent adjacency AS%d-AS%d" a x y
  | Refcount_drift (-1, _, n) ->
    Format.fprintf ppf "%d stored routes reference evicted attribute sets" n
  | Refcount_drift (id, rc, n) ->
    Format.fprintf ppf
      "attribute set in slot %d has refcount %d but %d stored references"
      id rc n

let pp ppf r =
  if ok r then
    Format.fprintf ppf "invariants: ok (%d speakers, %d with route)"
      r.speakers r.with_route
  else
    Format.fprintf ppf "@[<v>invariants: %d violations:@,%a@]"
      (List.length r.violations)
      (Format.pp_print_list pp_violation)
      r.violations

let to_snapshot r =
  let count k =
    List.length (List.filter (fun v -> kind_name v = k) r.violations)
  in
  Snapshot.Obj
    [ ("speakers", Snapshot.Int r.speakers);
      ("with_route", Snapshot.Int r.with_route);
      ("ok", Snapshot.Bool (ok r));
      ( "violations",
        Snapshot.Obj (List.map (fun k -> (k, Snapshot.Int (count k))) all_kinds) );
      ( "detail",
        Snapshot.List
          (List.map
             (fun v -> Snapshot.String (Format.asprintf "%a" pp_violation v))
             r.violations) ) ]
