open Dbgp_types
module Ia = Dbgp_core.Ia
module Value = Dbgp_core.Value

type spec = { advertisements : int; payload_bytes : int; seed : int }

let spec ?(payload_bytes = 0) ?(seed = 7) ~advertisements () =
  if advertisements < 0 then invalid_arg "Workload.spec: negative count";
  { advertisements; payload_bytes; seed }

(* AS-path lengths, typical of tier-1 tables. *)
let path_len_lo = 3
let path_len_hi = 5

let nth_prefix i =
  (* Spread prefixes across 24-bit networks deterministically. *)
  let net = (i * 2654435761) land 0xFFFFFF in
  Prefix.make (Ipv4.of_int (net lsl 8)) 24

let random_path rng ~lo ~hi =
  let len = Prng.int_in rng lo hi in
  let rec distinct acc n =
    if n = 0 then acc
    else
      let a = Prng.int_in rng 1 64000 in
      if List.mem a acc then distinct acc n else distinct (a :: acc) (n - 1)
  in
  List.map (fun a -> Path_elem.As (Asn.of_int a)) (distinct [] len)

let payload_protocols k =
  List.init k (fun i ->
      Protocol_id.register ~kind:Protocol_id.Critical_fix
        (Printf.sprintf "stress-fix-%d" i))

let generate s =
  let rng = Prng.create s.seed in
  let protos = payload_protocols 3 in
  let payload =
    if s.payload_bytes > 0 then Some (String.make s.payload_bytes 'x') else None
  in
  List.init s.advertisements (fun i ->
      let prefix = nth_prefix i in
      let path = random_path rng ~lo:path_len_lo ~hi:path_len_hi in
      let origin_asn =
        match List.rev path with
        | Path_elem.As a :: _ -> a
        | _ -> Asn.of_int 65000
      in
      let ia =
        Ia.originate ~prefix ~origin_asn
          ~next_hop:(Ipv4.of_octets 10 0 (i lsr 8 land 0xFF) (i land 0xFF))
          ()
      in
      let ia = { ia with Ia.path_vector = path } in
      match payload with
      | None -> ia
      | Some bytes ->
        Ia.set_path_descriptor ~owners:protos ~field:"stress-payload"
          (Value.Bytes bytes) ia)

let generate_updates s =
  let rng = Prng.create s.seed in
  List.init s.advertisements (fun i ->
      let prefix = nth_prefix i in
      let path =
        random_path rng ~lo:path_len_lo ~hi:path_len_hi
        |> List.filter_map (function
             | Path_elem.As a -> Some a
             | Path_elem.Island _ | Path_elem.As_set _ -> None)
      in
      let attrs =
        Dbgp_bgp.Attr.make
          ~as_path:[ Dbgp_bgp.Attr.Seq path ]
          ~next_hop:(Ipv4.of_octets 10 0 (i lsr 8 land 0xFF) (i land 0xFF))
          ()
      in
      { Dbgp_bgp.Message.withdrawn = []; attrs = Some attrs; nlri = [ prefix ] })
