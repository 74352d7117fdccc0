open Dbgp_types
module Ia = Dbgp_core.Ia
module Header = Dbgp_dataplane.Header

(* One island on the path: its protocol-specific header, if any, and
   the ingress to tunnel to when a gulf precedes it. *)
type island_plan = {
  island : Island_id.t;
  header : Header.t option;
  tunnel : Ipv4.t option;
}

let scion_header ia island =
  match Scion_like.choose_path (Scion_like.extract ~island ia) with
  | Some path -> Some (Header.Scion_hdr { path; pos = 0 })
  | None -> None

let pathlet_header ia island =
  match List.assoc_opt island (Pathlet.extract ia) with
  | None | Some [] -> None
  | Some pathlets -> (
    let store = Pathlet.Store.create () in
    List.iter (Pathlet.Store.add store) pathlets;
    (* Entry router: the first router any of the island's pathlets
       starts at, in FID order — the island's advertised entry. *)
    let entries =
      List.filter_map
        (fun p ->
          match Pathlet.entry p with
          | Pathlet.Router r -> Some r
          | Pathlet.Deliver _ -> None)
        pathlets
    in
    let routes =
      List.concat_map
        (fun from -> Pathlet.Store.routes_to store ~from ~dest:ia.Ia.prefix)
        (List.sort_uniq String.compare entries)
    in
    match routes with
    | [] -> None
    | route :: _ ->
      Some
        (Header.Pathlet_hdr
           { fids = List.map (fun (p : Pathlet.pathlet) -> p.Pathlet.fid) route }) )

let plan ~ia ~ingress_of =
  let islands = Ia.islands_on_path ia in
  List.mapi
    (fun i island ->
      let header =
        match scion_header ia island with
        | Some h -> Some h
        | None -> pathlet_header ia island
      in
      let tunnel = if i = 0 then None else ingress_of island in
      { island; header; tunnel })
    islands

let build ~ia ~src ~dst ~ingress_of =
  let plans = plan ~ia ~ingress_of in
  let per_island =
    List.concat_map
      (fun p ->
        let tunnel =
          match p.tunnel with
          | Some ep when p.header <> None -> [ Header.Tunnel_hdr { endpoint = ep } ]
          | _ -> []
        in
        let hdr = Option.to_list p.header in
        tunnel @ hdr)
      plans
  in
  per_island @ [ Header.Ipv4_hdr { src; dst } ]
