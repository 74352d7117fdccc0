open Dbgp_types

type t = { forwarders : (int, Forwarder.t) Hashtbl.t }

type outcome =
  | Delivered of { at : Asn.t; path : Asn.t list }
  | Dropped of { at : Asn.t; reason : string }

let create () = { forwarders = Hashtbl.create 32 }

let add t f = Hashtbl.replace t.forwarders (Asn.to_int (Forwarder.me f)) f

(* One forwarding decision at AS [at]: either the packet moves to another
   AS (with a possibly rewritten header stack), terminates here, or is
   dropped. *)
type step =
  | Move of Asn.t * Header.stack
  | Done
  | Drop of string

let rec decide f (headers : Header.stack) budget =
  if budget <= 0 then Drop "header-processing loop"
  else
    match headers with
    | [] -> Done
    | Header.Tunnel_hdr { endpoint } :: inner ->
      if Forwarder.is_local_addr f endpoint then decide f inner (budget - 1)
      else (
        match Forwarder.ip_lookup f endpoint with
        | Some (Forwarder.To_as next) -> Move (next, headers)
        | Some Forwarder.Local -> decide f inner (budget - 1)
        | None -> Drop "no route to tunnel endpoint" )
    | Header.Ipv4_hdr { dst; _ } :: inner ->
      if Forwarder.is_local_addr f dst then
        match inner with [] -> Done | _ -> decide f inner (budget - 1)
      else (
        match Forwarder.ip_lookup f dst with
        | Some (Forwarder.To_as next) -> Move (next, headers)
        | Some Forwarder.Local -> ( match inner with
                                    | [] -> Done
                                    | _ -> decide f inner (budget - 1) )
        | None -> Drop "no IPv4 route" )
    | Header.Pathlet_hdr { fids = [] } :: inner ->
      ( match inner with [] -> Done | _ -> decide f inner (budget - 1) )
    | Header.Pathlet_hdr { fids = fid :: rest } :: inner -> (
      match Forwarder.pathlet_lookup f ~fid with
      | None -> Drop (Printf.sprintf "unknown FID %d" fid)
      | Some (port, consume) ->
        let fids' = if consume then rest else fid :: rest in
        let headers' = Header.Pathlet_hdr { fids = fids' } :: inner in
        ( match port with
          | Forwarder.To_as next -> Move (next, headers')
          | Forwarder.Local -> decide f headers' (budget - 1) ) )
    | Header.Scion_hdr { path; pos } :: inner ->
      if pos >= List.length path then
        match inner with [] -> Done | _ -> decide f inner (budget - 1)
      else
        let current = List.nth path pos in
        if Forwarder.owns_router f ~router:current then
          decide f (Header.Scion_hdr { path; pos = pos + 1 } :: inner) (budget - 1)
        else (
          match Forwarder.router_lookup f ~router:current with
          | Some (Forwarder.To_as next) -> Move (next, headers)
          | Some Forwarder.Local ->
            decide f (Header.Scion_hdr { path; pos = pos + 1 } :: inner) (budget - 1)
          | None -> Drop (Printf.sprintf "no port for router %s" current) )

let route t ~from pkt =
  let rec go at (pkt : Packet.t) trail =
    let f =
      match Hashtbl.find_opt t.forwarders (Asn.to_int at) with
      | Some f -> f
      | None -> raise Not_found
    in
    match decide f pkt.Packet.headers 64 with
    | Done -> Delivered { at; path = List.rev (at :: trail) }
    | Drop reason -> Dropped { at; reason }
    | Move (next, headers) -> (
      match Packet.decrement_ttl { pkt with Packet.headers } with
      | None -> Dropped { at; reason = "TTL expired" }
      | Some pkt -> go next pkt (at :: trail) )
  in
  go from pkt []

let pp_outcome ppf = function
  | Delivered { at; path } ->
    Format.fprintf ppf "delivered at %a via [%a]" Asn.pp at
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " ")
         Asn.pp)
      path
  | Dropped { at; reason } ->
    Format.fprintf ppf "dropped at %a: %s" Asn.pp at reason
