open Dbgp_types
module W = Dbgp_wire.Writer
module R = Dbgp_wire.Reader

type origin = Igp | Egp | Incomplete

type segment = Seq of Asn.t list | Set of Asn.t list

type as_path = segment list

type community = int

type unknown = { type_code : int; transitive : bool; body : string }

type t = {
  origin : origin;
  as_path : as_path;
  next_hop : Ipv4.t;
  med : int option;
  local_pref : int option;
  atomic_aggregate : bool;
  aggregator : (Asn.t * Ipv4.t) option;
  communities : community list;
  unknowns : unknown list;
}

let make ?(origin = Igp) ?med ?local_pref ?(atomic_aggregate = false)
    ?aggregator ?(communities = []) ?(unknowns = []) ~as_path ~next_hop () =
  { origin; as_path; next_hop; med; local_pref; atomic_aggregate; aggregator;
    communities; unknowns }

let community ~asn ~value =
  if asn < 0 || asn > 0xFFFF || value < 0 || value > 0xFFFF then
    invalid_arg "Attr.community: halves must fit 16 bits"
  else (asn lsl 16) lor value

let pp_community ppf c = Format.fprintf ppf "%d:%d" (c lsr 16) (c land 0xFFFF)

let as_path_length path =
  List.fold_left
    (fun n -> function Seq asns -> n + List.length asns | Set _ -> n + 1)
    0 path

let as_path_asns path =
  List.concat_map (function Seq asns -> asns | Set asns -> asns) path

let as_path_contains a path = List.exists (Asn.equal a) (as_path_asns path)

let prepend a = function
  | Seq asns :: rest -> Seq (a :: asns) :: rest
  | path -> Seq [ a ] :: path

let equal a b = a = b

let pp_origin ppf = function
  | Igp -> Format.pp_print_string ppf "IGP"
  | Egp -> Format.pp_print_string ppf "EGP"
  | Incomplete -> Format.pp_print_string ppf "?"

let pp_segment ppf = function
  | Seq asns ->
    Format.pp_print_list ~pp_sep:Format.pp_print_space Asn.pp ppf asns
  | Set asns ->
    Format.fprintf ppf "{%a}"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
         Asn.pp)
      asns

let pp ppf t =
  Format.fprintf ppf "@[<h>path=[%a] nh=%a origin=%a"
    (Format.pp_print_list ~pp_sep:Format.pp_print_space pp_segment)
    t.as_path Ipv4.pp t.next_hop pp_origin t.origin;
  Option.iter (Format.fprintf ppf " med=%d") t.med;
  Option.iter (Format.fprintf ppf " lp=%d") t.local_pref;
  if t.communities <> [] then
    Format.fprintf ppf " comm=[%a]"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " ")
         pp_community)
      t.communities;
  Format.fprintf ppf "@]"

(* Wire format: a simplified RFC-4271-shaped TLV stream.  Attribute layout:
   flags byte (0x40 transitive, 0x80 optional), type byte, varint length,
   body.  Well-known type codes follow the RFC. *)

let t_origin = 1
and t_as_path = 2
and t_next_hop = 3
and t_med = 4
and t_local_pref = 5
and t_atomic_aggregate = 6
and t_aggregator = 7
and t_communities = 8

let encode_body f =
  let b = W.create () in
  f b;
  W.contents b

let encode_attr w ~flags ~type_code body =
  W.u8 w flags;
  W.u8 w type_code;
  W.delimited w body

let encode_segment w = function
  | Seq asns ->
    W.u8 w 2;
    W.list w W.asn asns
  | Set asns ->
    W.u8 w 1;
    W.list w W.asn asns

let encode w t =
  let well_known = 0x40 and optional = 0xC0 and opt_non_trans = 0x80 in
  let attrs = ref [] in
  let add flags type_code body = attrs := (flags, type_code, body) :: !attrs in
  add well_known t_origin
    (encode_body (fun b ->
         W.u8 b (match t.origin with Igp -> 0 | Egp -> 1 | Incomplete -> 2)));
  add well_known t_as_path
    (encode_body (fun b -> W.list b encode_segment t.as_path));
  add well_known t_next_hop (encode_body (fun b -> W.ipv4 b t.next_hop));
  Option.iter (fun m -> add opt_non_trans t_med (encode_body (fun b -> W.u32 b m))) t.med;
  Option.iter
    (fun lp -> add well_known t_local_pref (encode_body (fun b -> W.u32 b lp)))
    t.local_pref;
  if t.atomic_aggregate then add well_known t_atomic_aggregate "";
  Option.iter
    (fun (a, ip) ->
      add optional t_aggregator
        (encode_body (fun b ->
             W.asn b a;
             W.ipv4 b ip)))
    t.aggregator;
  if t.communities <> [] then
    add optional t_communities
      (encode_body (fun b -> W.list b W.u32 t.communities));
  List.iter
    (fun u ->
      add (if u.transitive then optional else opt_non_trans) u.type_code u.body)
    t.unknowns;
  let attrs = List.rev !attrs in
  W.varint w (List.length attrs);
  List.iter (fun (flags, tc, body) -> encode_attr w ~flags ~type_code:tc body) attrs

let decode_segment r =
  match R.u8 r with
  | 2 -> Seq (R.list ~min_width:4 r R.asn)
  | 1 -> Set (R.list ~min_width:4 r R.asn)
  | n -> raise (R.Error (Printf.sprintf "bad AS_PATH segment type %d" n))

let decode r =
  let n = R.varint r in
  let origin = ref Incomplete
  and as_path = ref []
  and next_hop = ref Ipv4.any
  and med = ref None
  and local_pref = ref None
  and atomic = ref false
  and aggregator = ref None
  and communities = ref []
  and unknowns = ref [] in
  for _ = 1 to n do
    let flags = R.u8 r in
    let type_code = R.u8 r in
    let body = R.delimited r in
    let br = R.of_string body in
    if type_code = t_origin then
      origin :=
        ( match R.u8 br with
          | 0 -> Igp
          | 1 -> Egp
          | 2 -> Incomplete
          | n -> raise (R.Error (Printf.sprintf "bad ORIGIN %d" n)) )
    else if type_code = t_as_path then
      as_path := R.list ~min_width:2 br decode_segment
    else if type_code = t_next_hop then next_hop := R.ipv4 br
    else if type_code = t_med then med := Some (R.u32 br)
    else if type_code = t_local_pref then local_pref := Some (R.u32 br)
    else if type_code = t_atomic_aggregate then atomic := true
    else if type_code = t_aggregator then begin
      let a = R.asn br in
      let ip = R.ipv4 br in
      aggregator := Some (a, ip)
    end
    else if type_code = t_communities then
      communities := R.list ~min_width:4 br R.u32
    else
      unknowns :=
        { type_code; transitive = flags land 0x40 <> 0; body } :: !unknowns
  done;
  { origin = !origin;
    as_path = !as_path;
    next_hop = !next_hop;
    med = !med;
    local_pref = !local_pref;
    atomic_aggregate = !atomic;
    aggregator = !aggregator;
    communities = !communities;
    unknowns = List.rev !unknowns }
