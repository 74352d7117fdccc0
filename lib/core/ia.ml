open Dbgp_types

type path_descriptor = {
  owners : Protocol_id.t list;
  field : string;
  value : Value.t;
}

type island_descriptor = {
  island : Island_id.t;
  proto : Protocol_id.t;
  ifield : string;
  ivalue : Value.t;
}

type t = {
  prefix : Prefix.t;
  path_vector : Path_elem.t list;
  membership : (Island_id.t * Asn.t list) list;
  path_descriptors : path_descriptor list;
  island_descriptors : island_descriptor list;
}

let field_next_hop = "next-hop"
let field_origin = "origin"
let field_med = "med"

let canon_owners owners =
  match List.sort_uniq Protocol_id.compare owners with
  | [] -> invalid_arg "Ia: descriptor must have at least one owner"
  | l -> l

let set_path_descriptor ~owners ~field value t =
  (* Invariant: at most one descriptor per (protocol, field) pair — the
     key [find_path_descriptor] resolves.  Owners being re-pointed at the
     new value leave their old descriptor; owners not mentioned keep the
     old value under a narrowed owner set. *)
  let owners = canon_owners owners in
  let updated = Protocol_id.Set.of_list owners in
  let rest =
    List.filter_map
      (fun d ->
        if d.field <> field then Some d
        else
          match
            List.filter (fun p -> not (Protocol_id.Set.mem p updated)) d.owners
          with
          | [] -> None
          | remaining -> Some { d with owners = remaining })
      t.path_descriptors
  in
  { t with path_descriptors = rest @ [ { owners; field; value } ] }

let find_path_descriptor ~proto ~field t =
  List.find_map
    (fun d ->
      if d.field = field && List.exists (Protocol_id.equal proto) d.owners then
        Some d.value
      else None)
    t.path_descriptors

let originate ~prefix ~origin_asn ~next_hop () =
  let base =
    { prefix;
      path_vector = [ Path_elem.As origin_asn ];
      membership = [];
      path_descriptors = [];
      island_descriptors = [] }
  in
  base
  |> set_path_descriptor ~owners:[ Protocol_id.bgp ] ~field:field_next_hop
       (Value.Addr next_hop)
  |> set_path_descriptor ~owners:[ Protocol_id.bgp ] ~field:field_origin
       (Value.Int 0)

let prepend_as a t = { t with path_vector = Path_elem.As a :: t.path_vector }

let prepend_island i t =
  { t with path_vector = Path_elem.Island i :: t.path_vector }

let has_loop t = Path_elem.has_loop t.path_vector
let path_length t = Path_elem.path_length t.path_vector

let asns_on_path t =
  List.concat_map
    (function
      | Path_elem.As a -> [ a ]
      | Path_elem.As_set s -> s
      | Path_elem.Island _ -> [])
    t.path_vector

let islands_on_path t =
  let from_pv =
    List.filter_map
      (function Path_elem.Island i -> Some i | _ -> None)
      t.path_vector
  in
  let declared = List.map fst t.membership in
  let seen = Hashtbl.create 8 in
  List.filter
    (fun i ->
      if Hashtbl.mem seen i then false
      else begin
        Hashtbl.add seen i ();
        true
      end)
    (from_pv @ declared)

let abstract_island ~island ~members t =
  let is_member = function
    | Path_elem.As a -> List.exists (Asn.equal a) members
    | Path_elem.As_set _ | Path_elem.Island _ -> false
  in
  let rec strip = function
    | e :: rest when is_member e -> strip rest
    | pv -> pv
  in
  let stripped = strip t.path_vector in
  if stripped == t.path_vector then t
  else { t with path_vector = Path_elem.Island island :: stripped }

let declare_membership ~island ~members t =
  let others = List.filter (fun (i, _) -> not (Island_id.equal i island)) t.membership in
  { t with membership = (island, members) :: others }

let island_of_asn t a =
  List.find_map
    (fun (i, members) ->
      if List.exists (Asn.equal a) members then Some i else None)
    t.membership

let remove_protocol proto t =
  let path_descriptors =
    List.filter_map
      (fun d ->
        match List.filter (fun p -> not (Protocol_id.equal p proto)) d.owners with
        | [] -> None
        | owners -> Some { d with owners })
      t.path_descriptors
  in
  let island_descriptors =
    List.filter (fun d -> not (Protocol_id.equal d.proto proto)) t.island_descriptors
  in
  { t with path_descriptors; island_descriptors }

let add_island_descriptor ~island ~proto ~field value t =
  let same d =
    Island_id.equal d.island island
    && Protocol_id.equal d.proto proto
    && d.ifield = field
  in
  let rest = List.filter (fun d -> not (same d)) t.island_descriptors in
  { t with
    island_descriptors =
      rest @ [ { island; proto; ifield = field; ivalue = value } ] }

let find_island_descriptors ~proto t =
  List.filter (fun d -> Protocol_id.equal d.proto proto) t.island_descriptors

let find_island_descriptor ~island ~proto ~field t =
  List.find_map
    (fun d ->
      if
        Island_id.equal d.island island
        && Protocol_id.equal d.proto proto
        && d.ifield = field
      then Some d.ivalue
      else None)
    t.island_descriptors

let protocols t =
  let s =
    List.fold_left
      (fun acc d ->
        List.fold_left (fun acc p -> Protocol_id.Set.add p acc) acc d.owners)
      Protocol_id.Set.empty t.path_descriptors
  in
  List.fold_left
    (fun acc d -> Protocol_id.Set.add d.proto acc)
    s t.island_descriptors

let next_hop t =
  Option.bind
    (find_path_descriptor ~proto:Protocol_id.bgp ~field:field_next_hop t)
    Value.as_addr

let with_next_hop nh t =
  (* Preserve the owner set of the existing next-hop descriptor so shared
     ownership survives a hop-by-hop rewrite. *)
  let owners =
    match
      List.find_opt (fun d -> d.field = field_next_hop) t.path_descriptors
    with
    | Some d -> d.owners
    | None -> [ Protocol_id.bgp ]
  in
  set_path_descriptor ~owners ~field:field_next_hop (Value.Addr nh) t

let shares_fields a b =
  a.path_vector == b.path_vector
  && a.membership == b.membership
  && a.path_descriptors == b.path_descriptors
  && a.island_descriptors == b.island_descriptors

(* Attribute equality ignoring the prefix: the relation by which the
   attribute table identifies a set and the batching layer buckets
   routes.  Per-field pointer checks come first — every route the
   attribute table stores points at its set's canonical fields, so
   physical sharing is the common case — with a structural fallback per
   field so equal-but-unshared attributes (a freshly decoded or built
   set) still compare equal. *)
let same_attrs a b =
  a == b
  || ((a.path_vector == b.path_vector || a.path_vector = b.path_vector)
     && (a.membership == b.membership || a.membership = b.membership)
     && (a.path_descriptors == b.path_descriptors
        || a.path_descriptors = b.path_descriptors)
     && (a.island_descriptors == b.island_descriptors
        || a.island_descriptors = b.island_descriptors))

(* Structural equality, but a field the two share physically is not
   walked: polymorphic [=] would compare a shared 32 KB descriptor byte
   by byte. *)
let equal a b = a == b || (Prefix.equal a.prefix b.prefix && same_attrs a b)

(* The hash for [same_attrs]: every table keyed by an attribute set
   (the attribute table, the batching buckets) uses it.
   Built on [Value.hash_fold], so it never reads a descriptor payload,
   and bounded to the first [attr_breadth] entries of each list.  Owners
   and field names are left out: they rarely tell attribute sets apart,
   and hashing them per descriptor costs more than the compares they
   would save. *)
let attr_breadth = 8

let rec fold_upto f h k = function
  | [] -> h
  | x :: rest -> if k = 0 then h else fold_upto f (f h x) (k - 1) rest

let island_fold h = function
  | Island_id.Singleton a -> Value.mix (Value.mix h 0) (Asn.to_int a)
  | Island_id.Named s -> Value.mix (Value.mix h 1) (Value.string_hash s)
  | Island_id.Hashed x -> Value.mix (Value.mix h 2) x

let asn_fold h a = Value.mix h (Asn.to_int a)

let elem_fold h = function
  | Path_elem.As a -> asn_fold h a
  | Path_elem.Island i -> island_fold (Value.mix h (-1)) i
  | Path_elem.As_set s -> fold_upto asn_fold (Value.mix h (-2)) attr_breadth s

let attrs_fold t =
  let h = fold_upto elem_fold 0 attr_breadth t.path_vector in
  let h =
    fold_upto (fun h (i, _) -> island_fold h i) (Value.mix h (-3)) attr_breadth
      t.membership
  in
  let h =
    fold_upto (fun h d -> Value.hash_fold h d.value) (Value.mix h (-4))
      attr_breadth t.path_descriptors
  in
  fold_upto
    (fun h d -> Value.hash_fold (island_fold h d.island) d.ivalue)
    (Value.mix h (-5)) attr_breadth t.island_descriptors

let attrs_hash t = Value.finish (attrs_fold t)

let with_prefix prefix t =
  if Prefix.equal prefix t.prefix then t else { t with prefix }

let pp_owner_list ppf owners =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
    Protocol_id.pp ppf owners

let pp ppf t =
  Format.fprintf ppf "@[<v2>IA %a@,pv: %a@," Prefix.pp t.prefix
    Path_elem.pp_path t.path_vector;
  if t.membership <> [] then begin
    Format.fprintf ppf "islands:@,";
    List.iter
      (fun (i, members) ->
        Format.fprintf ppf "  %a = {%a}@," Island_id.pp i
          (Format.pp_print_list
             ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
             Asn.pp)
          members)
      t.membership
  end;
  if t.path_descriptors <> [] then begin
    Format.fprintf ppf "path descriptors:@,";
    List.iter
      (fun d ->
        Format.fprintf ppf "  [%a] %s = %a@," pp_owner_list d.owners d.field
          Value.pp d.value)
      t.path_descriptors
  end;
  if t.island_descriptors <> [] then begin
    Format.fprintf ppf "island descriptors:@,";
    List.iter
      (fun d ->
        Format.fprintf ppf "  %a/%a %s = %a@," Island_id.pp d.island
          Protocol_id.pp d.proto d.ifield Value.pp d.ivalue)
      t.island_descriptors
  end;
  Format.fprintf ppf "@]"
