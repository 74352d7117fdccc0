open Dbgp_types

type endpoint = int * string (* portal address, service name *)

type t = {
  store : (endpoint * string, Dbgp_core.Value.t) Hashtbl.t;
  handlers : (endpoint, Dbgp_core.Value.t -> Dbgp_core.Value.t option) Hashtbl.t;
}

let create () = { store = Hashtbl.create 64; handlers = Hashtbl.create 16 }

let ep ~portal ~service = (Ipv4.to_int portal, service)

let post t ~portal ~service ~key v =
  Hashtbl.replace t.store (ep ~portal ~service, key) v

let fetch t ~portal ~service ~key =
  Hashtbl.find_opt t.store (ep ~portal ~service, key)

let keys t ~portal ~service =
  let target = ep ~portal ~service in
  Hashtbl.fold
    (fun (e, k) _ acc -> if e = target then k :: acc else acc)
    t.store []
  |> List.sort String.compare

let register_handler t ~portal ~service f =
  Hashtbl.replace t.handlers (ep ~portal ~service) f

let rpc t ~portal ~service req =
  match Hashtbl.find_opt t.handlers (ep ~portal ~service) with
  | None -> None
  | Some f -> f req
