open Dbgp_types
module Attr = Dbgp_bgp.Attr
module Message = Dbgp_bgp.Message

let attr_type_code = 0xDB

let as_path_of_pv pv =
  (* Legacy AS_PATH: AS-number entries only; island IDs are elided here
     and restored from the extras attribute. *)
  let segs =
    List.filter_map
      (function
        | Path_elem.As a -> Some (Attr.Seq [ a ])
        | Path_elem.As_set s -> Some (Attr.Set s)
        | Path_elem.Island _ -> None)
      pv
  in
  (* Merge consecutive Seq segments for a tidy wire form. *)
  List.fold_right
    (fun seg acc ->
      match (seg, acc) with
      | Attr.Seq a, Attr.Seq b :: rest -> Attr.Seq (a @ b) :: rest
      | _ -> seg :: acc)
    segs []

let to_update (ia : Ia.t) =
  let origin =
    match
      Option.bind
        (Ia.find_path_descriptor ~proto:Protocol_id.bgp ~field:Ia.field_origin ia)
        Value.as_int
    with
    | Some 1 -> Attr.Egp
    | Some 2 | None -> Attr.Incomplete
    | Some _ -> Attr.Igp
  in
  let med =
    Option.bind
      (Ia.find_path_descriptor ~proto:Protocol_id.bgp ~field:Ia.field_med ia)
      Value.as_int
  in
  let attrs =
    Attr.make ~origin ?med
      ~unknowns:
        [ { Attr.type_code = attr_type_code;
            transitive = true;
            body = Codec.encode ia } ]
      ~as_path:(as_path_of_pv ia.Ia.path_vector)
      ~next_hop:(Option.value (Ia.next_hop ia) ~default:Ipv4.any)
      ()
  in
  { Message.withdrawn = []; attrs = Some attrs; nlri = [ ia.Ia.prefix ] }

let of_update (u : Message.update) =
  match (u.Message.attrs, u.Message.nlri) with
  | Some attrs, prefix :: _ -> (
    let extras =
      List.find_opt
        (fun (x : Attr.unknown) -> x.Attr.type_code = attr_type_code)
        attrs.Attr.unknowns
    in
    match extras with
    | Some x -> (
      match Codec.decode x.Attr.body with
      | ia -> Some ia
      | exception Dbgp_wire.Reader.Error _ -> None )
    | None ->
      (* Legacy origination: synthesize a plain-BGP IA. *)
      let pv =
        List.concat_map
          (function
            | Attr.Seq asns -> List.map (fun a -> Path_elem.As a) asns
            | Attr.Set asns -> [ Path_elem.as_set asns ])
          attrs.Attr.as_path
      in
      let base =
        { Ia.prefix;
          path_vector = pv;
          membership = [];
          path_descriptors = [];
          island_descriptors = [] }
      in
      let base =
        Ia.set_path_descriptor ~owners:[ Protocol_id.bgp ]
          ~field:Ia.field_origin
          (Value.Int
             ( match attrs.Attr.origin with
               | Attr.Igp -> 0
               | Attr.Egp -> 1
               | Attr.Incomplete -> 2 ))
          base
        |> Ia.with_next_hop attrs.Attr.next_hop
      in
      Some
        ( match attrs.Attr.med with
          | Some m ->
            Ia.set_path_descriptor ~owners:[ Protocol_id.bgp ]
              ~field:Ia.field_med (Value.Int m) base
          | None -> base ) )
  | _ -> None

(* Substituted for any ASN that does not fit 16 bits. *)
let as_trans = Asn.of_int 23456

let to_update_two_byte (ia : Ia.t) =
  let u = to_update ia in
  match u.Message.attrs with
  | None -> u
  | Some attrs ->
    let squash seg =
      let sub a = if Asn.to_int a > 0xFFFF then as_trans else a in
      match seg with
      | Attr.Seq asns -> Attr.Seq (List.map sub asns)
      | Attr.Set asns -> Attr.Set (List.map sub asns)
    in
    { u with
      Message.attrs =
        Some { attrs with Attr.as_path = List.map squash attrs.Attr.as_path } }
