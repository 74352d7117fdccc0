open Dbgp_types

type merge_rule = Cannot_aggregate | Take_worst | Take_min | Must_be_equal

(* The rules reflect the paper's analysis: plain BGP fields merge
   conservatively, EQ-BGP's bottleneck bandwidth takes the min, and
   everything else cannot aggregate. *)
let rule_for ~proto ~field =
  if Protocol_id.equal proto Protocol_id.bgp && field = Ia.field_origin then
    Take_worst
  else if Protocol_id.equal proto Protocol_id.bgp && field = Ia.field_next_hop
  then Must_be_equal
  else if Protocol_id.equal proto Protocol_id.eq_bgp && field = "eqbgp-bw" then
    Take_min
  else Cannot_aggregate

let siblings a b =
  Prefix.length a > 0
  && Prefix.length a = Prefix.length b
  && (not (Prefix.equal a b))
  &&
  let parent = Prefix.make (Prefix.network a) (Prefix.length a - 1) in
  Prefix.subsumes parent b

let parent_of a = Prefix.make (Prefix.network a) (Prefix.length a - 1)

let merged_path_vector (a : Ia.t) (b : Ia.t) =
  (* BGP-style aggregation: the union of both paths as one AS_SET (we do
     not attempt to find a common SEQUENCE head — ATOMIC_AGGREGATE
     semantics). *)
  let asns = List.sort_uniq Asn.compare (Ia.asns_on_path a @ Ia.asns_on_path b) in
  [ Path_elem.as_set asns ]

let descriptor_rule (d : Ia.path_descriptor) =
  (* A shared descriptor aggregates only if every owner's rule agrees;
     the most restrictive wins. *)
  List.fold_left
    (fun acc proto ->
      match (acc, rule_for ~proto ~field:d.Ia.field) with
      | Cannot_aggregate, _ | _, Cannot_aggregate -> Cannot_aggregate
      | Must_be_equal, _ | _, Must_be_equal -> Must_be_equal
      | Take_worst, Take_min | Take_min, Take_worst -> Cannot_aggregate
      | Take_worst, Take_worst -> Take_worst
      | Take_min, Take_min -> Take_min)
    (rule_for ~proto:(List.hd d.Ia.owners) ~field:d.Ia.field)
    (List.tl d.Ia.owners)

let merge_values rule va vb =
  match rule with
  | Cannot_aggregate -> None
  | Must_be_equal -> if Value.equal va vb then Some va else None
  | Take_worst -> (
    match (Value.as_int va, Value.as_int vb) with
    | Some x, Some y -> Some (Value.Int (max x y))
    | _ -> None )
  | Take_min -> (
    match (Value.as_int va, Value.as_int vb) with
    | Some x, Some y -> Some (Value.Int (min x y))
    | _ -> None )

let aggregate (a : Ia.t) (b : Ia.t) =
  if not (siblings a.Ia.prefix b.Ia.prefix) then None
  else begin
    let path_descriptors =
      List.filter_map
        (fun (da : Ia.path_descriptor) ->
          List.find_map
            (fun (db : Ia.path_descriptor) ->
              if da.Ia.field = db.Ia.field && da.Ia.owners = db.Ia.owners then
                Option.map
                  (fun v -> { da with Ia.value = v })
                  (merge_values (descriptor_rule da) da.Ia.value db.Ia.value)
              else None)
            b.Ia.path_descriptors)
        a.Ia.path_descriptors
    in
    let island_descriptors =
      List.filter
        (fun (da : Ia.island_descriptor) ->
          List.exists (fun db -> da = db) b.Ia.island_descriptors)
        a.Ia.island_descriptors
    in
    Some
      { Ia.prefix = parent_of a.Ia.prefix;
        path_vector = merged_path_vector a b;
        membership = [];
        path_descriptors;
        island_descriptors }
  end
