type t = As of Asn.t | Island of Island_id.t | As_set of Asn.t list

let as_ a = As a
let island i = Island i
let as_set asns = As_set (List.sort_uniq Asn.compare asns)

let mentions_asn a = function
  | As b -> Asn.equal a b
  | Island _ -> false
  | As_set s -> List.exists (Asn.equal a) s

let mentions_island i = function
  | Island j -> Island_id.equal i j
  | As _ | As_set _ -> false

let compare x y =
  match (x, y) with
  | As a, As b -> Asn.compare a b
  | As _, _ -> -1
  | _, As _ -> 1
  | Island a, Island b -> Island_id.compare a b
  | Island _, _ -> -1
  | _, Island _ -> 1
  | As_set a, As_set b -> List.compare Asn.compare a b

let equal x y = x == y || compare x y = 0

let to_string = function
  | As a -> Asn.to_string a
  | Island i -> Island_id.to_string i
  | As_set s -> "{" ^ String.concat "," (List.map Asn.to_string s) ^ "}"

let pp ppf t = Format.pp_print_string ppf (to_string t)
let path_length path = List.length path

(* The loop check runs on every received announcement.  A path vector
   is short, so comparing each element with the ones after it costs a
   few dozen integer compares and allocates nothing; past
   [scan_limit] AS numbers (only hostile or synthetic input) the
   quadratic scan gives way to set membership.  AS numbers repeated
   inside one AS_SET are not a loop, as before. *)
let scan_limit = 32

let rec asn_later a = function
  | [] -> false
  | As b :: rest -> Asn.equal a b || asn_later a rest
  | As_set s :: rest -> List.exists (Asn.equal a) s || asn_later a rest
  | Island _ :: rest -> asn_later a rest

let rec island_later i = function
  | [] -> false
  | Island j :: rest -> Island_id.equal i j || island_later i rest
  | (As _ | As_set _) :: rest -> island_later i rest

let rec scan = function
  | [] -> false
  | As a :: rest -> asn_later a rest || scan rest
  | Island i :: rest -> island_later i rest || scan rest
  | As_set s :: rest -> List.exists (fun a -> asn_later a rest) s || scan rest

let has_loop_sets path =
  let rec go seen_as seen_isl = function
    | [] -> false
    | As a :: rest ->
      Asn.Set.mem a seen_as || go (Asn.Set.add a seen_as) seen_isl rest
    | Island i :: rest ->
      Island_id.Set.mem i seen_isl
      || go seen_as (Island_id.Set.add i seen_isl) rest
    | As_set s :: rest ->
      List.exists (fun a -> Asn.Set.mem a seen_as) s
      || go (List.fold_left (fun acc a -> Asn.Set.add a acc) seen_as s) seen_isl rest
  in
  go Asn.Set.empty Island_id.Set.empty path

(* More than [n] AS numbers and islands on [path], AS_SET members
   counted one by one. *)
let rec longer_than n = function
  | [] -> false
  | As_set s :: rest ->
    let n = n - List.length s in
    n < 0 || longer_than n rest
  | (As _ | Island _) :: rest -> n = 0 || longer_than (n - 1) rest

let has_loop path =
  if longer_than scan_limit path then has_loop_sets path else scan path

let pp_path ppf path =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " ")
    pp ppf path
