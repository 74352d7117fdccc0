open Dbgp_types

type t = Ia.t -> Ia.t option

let accept ia = Some ia
let reject _ = None
let compose f g ia = Option.bind (f ia) g
let chain fs = List.fold_left compose accept fs
let reject_loops ia = if Ia.has_loop ia then None else Some ia

let keep_only keep ia =
  let drop = Protocol_id.Set.diff (Ia.protocols ia) keep in
  Some (Protocol_id.Set.fold Ia.remove_protocol drop ia)

let prepend_as a ia = Some (Ia.prepend_as a ia)
let abstract_island ~island ~members ia = Some (Ia.abstract_island ~island ~members ia)

let declare_membership ~island ~members ia =
  Some (Ia.declare_membership ~island ~members ia)

let max_size budget ia = if Codec.size ia > budget then None else Some ia
let when_ pred f ia = if pred ia then f ia else Some ia
