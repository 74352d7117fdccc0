open Dbgp_types

type candidate = { from_peer : Peer.t option; ia : Ia.t }

type t = {
  protocol : Protocol_id.t;
  import_filter : Filters.t;
  export_filter : Filters.t;
  select : prefix:Prefix.t -> candidate list -> candidate option;
  contribute : me:Asn.t -> Ia.t -> Ia.t;
}

let candidate_path_length c = Ia.path_length c.ia

let compare_tiebreak a b =
  match (a.from_peer, b.from_peer) with
  | None, None -> 0
  | None, Some _ -> 1 (* local origination wins *)
  | Some _, None -> -1
  | Some p, Some q -> Peer.compare q p (* lower peer preferred *)

let best_by cmp cands =
  match cands with
  | [] -> None
  | c :: rest ->
    Some (List.fold_left (fun acc x -> if cmp x acc > 0 then x else acc) c rest)

(* BGP's origin attribute (2, incomplete, when absent).  A walk of two
   or three descriptors — cheaper than hashing the IA for a memo slot. *)
let origin_of_ia ia =
  match
    Ia.find_path_descriptor ~proto:Protocol_id.bgp ~field:Ia.field_origin ia
  with
  | Some v -> Option.value (Value.as_int v) ~default:2
  | None -> 2

let bgp () =
  let origin_of c = origin_of_ia c.ia in
  let compare_bgp a b =
    match Int.compare (candidate_path_length b) (candidate_path_length a) with
    | 0 -> (
      match Int.compare (origin_of b) (origin_of a) with
      | 0 -> compare_tiebreak a b
      | c -> c )
    | c -> c
  in
  { protocol = Protocol_id.bgp;
    import_filter = Filters.accept;
    export_filter = Filters.accept;
    select = (fun ~prefix:_ cands -> best_by compare_bgp cands);
    contribute = (fun ~me:_ ia -> ia) }
