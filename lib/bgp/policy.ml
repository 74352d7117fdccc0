open Dbgp_types

type relationship = To_customer | To_peer | To_provider

type match_cond =
  | Match_any
  | Match_prefix of Prefix.t
  | Match_asn_on_path of Asn.t
  | Match_community of Attr.community
  | Match_not of match_cond
  | Match_all of match_cond list

type action =
  | Set_local_pref of int
  | Set_med of int
  | Add_community of Attr.community
  | Strip_communities
  | Prepend of Asn.t * int

type clause = { cond : match_cond; permit : bool; actions : action list }

type t = clause list

let rec matches cond prefix (attrs : Attr.t) =
  match cond with
  | Match_any -> true
  | Match_prefix p -> Prefix.subsumes p prefix
  | Match_asn_on_path a -> Attr.as_path_contains a attrs.Attr.as_path
  | Match_community c -> List.mem c attrs.Attr.communities
  | Match_not c -> not (matches c prefix attrs)
  | Match_all cs -> List.for_all (fun c -> matches c prefix attrs) cs

let run_action (attrs : Attr.t) = function
  | Set_local_pref lp -> { attrs with Attr.local_pref = Some lp }
  | Set_med m -> { attrs with Attr.med = Some m }
  | Add_community c -> { attrs with Attr.communities = c :: attrs.Attr.communities }
  | Strip_communities -> { attrs with Attr.communities = [] }
  | Prepend (a, n) ->
    let rec go attrs = function
      | 0 -> attrs
      | k ->
        go { attrs with Attr.as_path = Attr.prepend a attrs.Attr.as_path } (k - 1)
    in
    go attrs n

let apply policy prefix attrs =
  let rec go = function
    | [] -> None
    | c :: rest ->
      if matches c.cond prefix attrs then
        if c.permit then Some (List.fold_left run_action attrs c.actions)
        else None
      else go rest
  in
  go policy

type export_rule = learned:relationship option -> to_:relationship -> bool

let valley_free ~learned ~to_ =
  match learned with
  | None (* locally originated *) | Some To_customer -> true
  | Some (To_peer | To_provider) -> to_ = To_customer

let export_all ~learned:_ ~to_:_ = true
