open Dbgp_types
module Ia = Dbgp_core.Ia
module Value = Dbgp_core.Value
module Speaker = Dbgp_core.Speaker
module Network = Dbgp_netsim.Network
module Policy = Dbgp_bgp.Policy

type kind =
  | Origin_hijack
  | Subprefix_hijack
  | Forged_path_hijack
  | Route_leak
  | Island_forgery
  | Passthrough_tamper

let all =
  [ Origin_hijack; Subprefix_hijack; Forged_path_hijack; Route_leak;
    Island_forgery; Passthrough_tamper ]

let name = function
  | Origin_hijack -> "origin_hijack"
  | Subprefix_hijack -> "subprefix_hijack"
  | Forged_path_hijack -> "forged_path_hijack"
  | Route_leak -> "route_leak"
  | Island_forgery -> "island_forgery"
  | Passthrough_tamper -> "passthrough_tamper"

let describe = function
  | Origin_hijack ->
    "attacker originates the victim's prefix claiming itself as origin"
  | Subprefix_hijack ->
    "attacker originates a more-specific half of the victim's prefix, \
     winning everywhere by longest-prefix match"
  | Forged_path_hijack ->
    "attacker originates the victim's prefix with a forged AS path \
     [attacker, victim], claiming direct adjacency to the true origin"
  | Route_leak ->
    "attacker drops its valley-free export rule and re-advertises \
     provider/peer-learned routes to its other providers and peers"
  | Island_forgery ->
    "attacker injects a forged island descriptor into announcements it \
     forwards, claiming capabilities no island published"
  | Passthrough_tamper ->
    "attacker strips foreign-protocol pass-through descriptors from \
     announcements it forwards"

let is_hijack = function
  | Origin_hijack | Subprefix_hijack | Forged_path_hijack -> true
  | Route_leak | Island_forgery | Passthrough_tamper -> false

type t = {
  kind : kind;
  attacker : Asn.t;
  victim : Asn.t;
  prefix : Prefix.t;  (** the victim's (ground-truth owned) prefix *)
}

(* The prefix the attack poisons: the forged more-specific for a
   sub-prefix hijack, the victim's own prefix otherwise. *)
let poisoned_prefix a =
  match a.kind with
  | Subprefix_hijack -> (
    match Prefix.split a.prefix with
    | Some (lo, _) -> lo
    | None -> a.prefix (* /32 cannot split; degrade to an exact hijack *) )
  | _ -> a.prefix

(* Ground-truth constants for the D-BGP-specific attacks: the forged
   island identity/field the detection predicate checks against, and the
   foreign protocol whose pass-through data the tamperer strips. *)
let forged_island = Island_id.named "forged-island"
let forged_proto = Protocol_id.bgpsec
let forged_field = "forged-capability"
let forged_value = Value.Bytes "attacker-claimed"
let tamper_proto = Protocol_id.wiser

let interposer_for a =
  let target = poisoned_prefix a in
  fun ~from ~to_:_ (msg : Speaker.msg) ->
    match msg with
    | Speaker.Announce ia
      when Asn.equal from a.attacker && Prefix.equal ia.Ia.prefix target -> (
      match a.kind with
      | Island_forgery ->
        Some
          (Speaker.Announce
             (Ia.add_island_descriptor ~island:forged_island
                ~proto:forged_proto ~field:forged_field forged_value ia))
      | Passthrough_tamper ->
        let stripped = Ia.remove_protocol tamper_proto ia in
        if stripped == ia then Some msg
        else Some (Speaker.Announce stripped)
      | _ -> Some msg )
    | _ -> Some msg

(* The announcement a hijacker pushes at its neighbors.  Built directly
   rather than through the attacker's own origination machinery: a
   compromised router does not run its forgery through its honest
   decision process (which might well prefer the victim's real route and
   never export the fake one). *)
let forged_ia a =
  let attacker_addr = Network.speaker_addr a.attacker in
  match a.kind with
  | Origin_hijack ->
    Ia.originate ~prefix:a.prefix ~origin_asn:a.attacker
      ~next_hop:attacker_addr ()
  | Subprefix_hijack ->
    Ia.originate ~prefix:(poisoned_prefix a) ~origin_asn:a.attacker
      ~next_hop:attacker_addr ()
  | Forged_path_hijack ->
    Ia.prepend_as a.attacker
      (Ia.originate ~prefix:a.prefix ~origin_asn:a.victim
         ~next_hop:attacker_addr ())
  | Route_leak | Island_forgery | Passthrough_tamper ->
    invalid_arg "forged_ia: not a hijack"

(* A hijacker ignores export policy: every neighbor gets the forgery. *)
let inject_to_all_neighbors net a msg =
  let from = Network.peer_of net a.attacker in
  List.iter
    (fun (n : Speaker.neighbor) ->
      Network.inject net ~from ~to_:n.Speaker.peer.Dbgp_core.Peer.asn msg)
    (Speaker.neighbors (Network.speaker net a.attacker))

let launch net a =
  match a.kind with
  | Origin_hijack | Subprefix_hijack | Forged_path_hijack ->
    inject_to_all_neighbors net a (Speaker.Announce (forged_ia a))
  | Route_leak ->
    Speaker.set_export_rule (Network.speaker net a.attacker) Policy.export_all;
    Network.readvertise_all net a.attacker
  | Island_forgery | Passthrough_tamper ->
    Network.set_interposer net (Some (interposer_for a));
    (* Re-emit the attacker's current advertisements so already-forwarded
       clean state is replaced by the tampered version. *)
    Network.readvertise_all net a.attacker

let stand_down net a =
  match a.kind with
  | Origin_hijack | Subprefix_hijack | Forged_path_hijack ->
    inject_to_all_neighbors net a (Speaker.Withdraw (poisoned_prefix a))
  | Route_leak ->
    Speaker.set_export_rule (Network.speaker net a.attacker) Policy.valley_free;
    (* Re-deriving under the restored rule withdraws the leaked routes
       from now-ineligible peers. *)
    Network.readvertise_all net a.attacker
  | Island_forgery | Passthrough_tamper ->
    Network.set_interposer net None;
    (* Re-announce clean state over the tampered copies downstream. *)
    Network.readvertise_all net a.attacker
