open Dbgp_types
module Ia = Dbgp_core.Ia
module Value = Dbgp_core.Value
module Dm = Dbgp_core.Decision_module

let protocol = Protocol_id.r_bgp
let field_backup = "rbgp-backup"

let elem_to_value = function
  | Path_elem.As a -> Value.Pair (Value.Int 0, Value.Asn a)
  | Path_elem.Island i -> Value.Pair (Value.Int 1, Value.Str (Island_id.to_string i))
  | Path_elem.As_set s -> Value.Pair (Value.Int 2, Value.List (List.map (fun a -> Value.Asn a) s))

let elem_of_value = function
  | Value.Pair (Value.Int 0, Value.Asn a) -> Some (Path_elem.As a)
  | Value.Pair (Value.Int 1, Value.Str s) -> Some (Path_elem.Island (Island_id.named s))
  | Value.Pair (Value.Int 2, Value.List vs) ->
    let asns = List.filter_map Value.as_asn vs in
    if List.length asns = List.length vs then Some (Path_elem.as_set asns) else None
  | _ -> None

let backup_of ia =
  match Ia.find_path_descriptor ~proto:protocol ~field:field_backup ia with
  | Some (Value.List vs) ->
    let elems = List.filter_map elem_of_value vs in
    if List.length elems = List.length vs && elems <> [] then Some elems else None
  | _ -> None

let set_backup path ia =
  Ia.set_path_descriptor ~owners:[ protocol ] ~field:field_backup
    (Value.List (List.map elem_to_value path))
    ia

let asns_of path =
  List.concat_map
    (function
      | Path_elem.As a -> [ a ]
      | Path_elem.As_set s -> s
      | Path_elem.Island _ -> [])
    path

let overlap a b =
  let sa = Asn.Set.of_list (asns_of a) in
  List.length (List.filter (fun x -> Asn.Set.mem x sa) (asns_of b))

let most_disjoint ~primary cands =
  let score c =
    (overlap primary c.Dm.ia.Ia.path_vector, Dm.candidate_path_length c)
  in
  match cands with
  | [] -> None
  | c :: rest ->
    Some
      (List.fold_left
         (fun acc x ->
           let cmp = compare (score x) (score acc) in
           if cmp < 0 || (cmp = 0 && Dm.compare_tiebreak x acc > 0) then x
           else acc)
         c rest)

(* Per-prefix memory of the most recent selection's backup, filled during
   select and consumed by contribute. *)
let decision_module () =
  let bgp = Dm.bgp () in
  let backups : (Prefix.t, Path_elem.t list) Hashtbl.t = Hashtbl.create 16 in
  let select ~prefix cands =
    match bgp.Dm.select ~prefix cands with
    | None ->
      Hashtbl.remove backups prefix;
      None
    | Some best ->
      let others = List.filter (fun c -> c != best) cands in
      ( match most_disjoint ~primary:best.Dm.ia.Ia.path_vector others with
        | Some alt ->
          Hashtbl.replace backups prefix alt.Dm.ia.Ia.path_vector
        | None -> Hashtbl.remove backups prefix );
      Some best
  in
  let contribute ~me ia =
    match Hashtbl.find_opt backups ia.Ia.prefix with
    | Some path -> set_backup (Path_elem.As me :: path) ia
    | None -> ia
  in
  { bgp with Dm.protocol; select; contribute }

let failover = backup_of
