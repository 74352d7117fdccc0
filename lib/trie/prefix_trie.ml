open Dbgp_types

(* A path-compressed (Patricia) binary trie.  Every node carries the
   full prefix it represents; children strictly extend their parent's
   prefix, and one-way chains of valueless interior nodes are never
   materialized.  The structure is canonical: a node either holds a
   value or has two non-empty children (a valueless single-child node
   collapses into that child).  An n-route table therefore uses at most
   2n-1 nodes — the property that lets million-prefix tables fit — where
   the uncompressed trie spent up to [prefix length] nodes per route on
   interior chains.

   Node shapes are specialized to their occupancy so the dominant
   populations pay no dead fields: a bare [Leaf] is 3 words and a
   valueless [Branch] 4, where a single uniform
   [{pfx; v option; l; r}] node spent 5 words plus a [Some] box on
   every binding.  Random full-table workloads are almost entirely
   leaves and valueless branches, so this is most of the trie's
   resident cost.  [Bnode] (a valued node with at least one child)
   covers bindings that subsume more-specific ones.

   Observable orders are unchanged from the uncompressed trie:
   {!matches} is deepest-first, {!fold}/{!bindings} ascending by
   (network, length).  Pre-order traversal (value, left, right) yields
   exactly that ascending order: a node's network is canonical (host
   bits zero), left descendants share it with further bits possibly
   set, and right descendants set bit [length], so
   value < left subtree < right subtree under {!Prefix.compare}. *)
type 'a t =
  | Empty
  | Leaf of { pfx : Prefix.t; v : 'a }
  | Branch of { pfx : Prefix.t; l : 'a t; r : 'a t } (* both non-empty *)
  | Bnode of { pfx : Prefix.t; v : 'a; l : 'a t; r : 'a t }

let empty = Empty

let is_empty = function
  | Empty -> true
  | _ -> false

let leaf pfx value = Leaf { pfx; v = value }

(* The (pfx, value, left, right) view of a non-empty node; the
   structural operations below are written against it so the insertion
   logic stays in one shape.  The tuple is transient build-path
   allocation — the read-heavy query functions match constructors
   directly instead. *)
let parts = function
  | Empty -> invalid_arg "Prefix_trie.parts: empty"
  | Leaf n -> (n.pfx, Some n.v, Empty, Empty)
  | Branch n -> (n.pfx, None, n.l, n.r)
  | Bnode n -> (n.pfx, Some n.v, n.l, n.r)

(* Smart constructor enforcing canonical form: valueless leaves vanish
   and a valueless node with a single child collapses into the child
   (which keeps its own, longer prefix). *)
let node pfx v l r =
  match (v, l, r) with
  | None, Empty, Empty -> Empty
  | None, (Leaf _ | Branch _ | Bnode _ as c), Empty
  | None, Empty, (Leaf _ | Branch _ | Bnode _ as c) -> c
  | None, l, r -> Branch { pfx; l; r }
  | Some v, Empty, Empty -> Leaf { pfx; v }
  | Some v, l, r -> Bnode { pfx; v; l; r }

(* The first bit position at which [p] and [q] disagree, capped at the
   shorter length — i.e. the length of their longest common prefix.
   Networks are canonical, so a single xor finds the disagreement and a
   short scan locates it. *)
let first_diff p q =
  let lim = min (Prefix.length p) (Prefix.length q) in
  let x = Ipv4.to_int (Prefix.network p) lxor Ipv4.to_int (Prefix.network q) in
  if x = 0 then lim
  else
    let rec go i =
      if i >= lim then lim
      else if x land (1 lsl (31 - i)) <> 0 then i
      else go (i + 1)
    in
    go 0

let add p value t =
  let rec go t =
    match t with
    | Empty -> leaf p value
    | _ ->
      let pfx, v, l, r = parts t in
      let lp = Prefix.length pfx and lq = Prefix.length p in
      let d = first_diff pfx p in
      if d = lp && d = lq then node pfx (Some value) l r
      else if d = lp then
        (* [p] strictly extends the node's prefix: descend. *)
        if Prefix.bit p lp then node pfx v l (go r)
        else node pfx v (go l) r
      else if d = lq then
        (* The node's prefix strictly extends [p]: insert above. *)
        if Prefix.bit pfx lq then Bnode { pfx = p; v = value; l = Empty; r = t }
        else Bnode { pfx = p; v = value; l = t; r = Empty }
      else
        (* Divergence below both: branch at the common prefix. *)
        let c = Prefix.make (Prefix.network p) d in
        if Prefix.bit p d then Branch { pfx = c; l = t; r = leaf p value }
        else Branch { pfx = c; l = leaf p value; r = t }
  in
  go t

let update p f t =
  let rec go t =
    match t with
    | Empty -> ( match f None with None -> Empty | Some v -> leaf p v )
    | _ -> (
      let pfx, v, l, r = parts t in
      let lp = Prefix.length pfx and lq = Prefix.length p in
      let d = first_diff pfx p in
      if d = lp && d = lq then node pfx (f v) l r
      else if d = lp then
        if Prefix.bit p lp then node pfx v l (go r)
        else node pfx v (go l) r
      else
        (* [p] is absent from the trie; only an insertion changes it. *)
        match f None with
        | None -> t
        | Some v ->
          if d = lq then
            if Prefix.bit pfx lq then
              Bnode { pfx = p; v; l = Empty; r = t }
            else Bnode { pfx = p; v; l = t; r = Empty }
          else
            let c = Prefix.make (Prefix.network p) d in
            if Prefix.bit p d then Branch { pfx = c; l = t; r = leaf p v }
            else Branch { pfx = c; l = leaf p v; r = t } )
  in
  go t

let remove p t = update p (fun _ -> None) t

let find p t =
  let rec go t =
    match t with
    | Empty -> None
    | _ ->
      let pfx, v, l, r = parts t in
      let lp = Prefix.length pfx and lq = Prefix.length p in
      let d = first_diff pfx p in
      if d < lp then None
      else if lp = lq then v
      else go (if Prefix.bit p lp then r else l)
  in
  go t

let mem p t = Option.is_some (find p t)

let addr_bit a i = Ipv4.to_int a land (1 lsl (31 - i)) <> 0

let matches addr t =
  (* With compression a branch taken at the parent no longer guarantees
     the child's (longer) prefix contains the address — check before
     descending further. *)
  let rec go t acc =
    match t with
    | Empty -> acc
    | Leaf n -> if Prefix.mem addr n.pfx then (n.pfx, n.v) :: acc else acc
    | Branch n ->
      if not (Prefix.mem addr n.pfx) then acc
      else
        let len = Prefix.length n.pfx in
        if len = 32 then acc
        else go (if addr_bit addr len then n.r else n.l) acc
    | Bnode n ->
      if not (Prefix.mem addr n.pfx) then acc
      else
        let acc = (n.pfx, n.v) :: acc in
        let len = Prefix.length n.pfx in
        if len = 32 then acc
        else go (if addr_bit addr len then n.r else n.l) acc
  in
  go t []

(* Deepest-first search without building the match list: remember the
   deepest valued node seen whose prefix covers [p], and stop at the
   first node that does not (its descendants extend it, so none of them
   can either) or that is already as long as [p].  Top-level, so a walk
   allocates nothing but its result. *)
let rec covering p lq t best =
  match t with
  | Empty -> best
  | Leaf n -> if Prefix.subsumes n.pfx p then t else best
  | Branch n ->
    let len = Prefix.length n.pfx in
    if len >= lq || not (Prefix.subsumes n.pfx p) then best
    else covering p lq (if Prefix.bit p len then n.r else n.l) best
  | Bnode n ->
    if not (Prefix.subsumes n.pfx p) then best
    else
      let len = Prefix.length n.pfx in
      if len >= lq then t
      else covering p lq (if Prefix.bit p len then n.r else n.l) t

let longest_covering p t =
  match covering p (Prefix.length p) t Empty with
  | Leaf n -> Some (n.pfx, n.v)
  | Bnode n -> Some (n.pfx, n.v)
  | Empty | Branch _ -> None

let longest_match addr t = longest_covering (Prefix.make addr 32) t

let rec fold f t acc =
  match t with
  | Empty -> acc
  | Leaf n -> f n.pfx n.v acc
  | Branch n -> fold f n.r (fold f n.l acc)
  | Bnode n -> fold f n.r (fold f n.l (f n.pfx n.v acc))

let iter f t = fold (fun p v () -> f p v) t ()
let cardinal t = fold (fun _ _ n -> n + 1) t 0
let bindings t = List.rev (fold (fun p v acc -> (p, v) :: acc) t [])
let of_list l = List.fold_left (fun t (p, v) -> add p v t) empty l

let rec map f = function
  | Empty -> Empty
  | Leaf n -> Leaf { pfx = n.pfx; v = f n.v }
  | Branch n -> Branch { pfx = n.pfx; l = map f n.l; r = map f n.r }
  | Bnode n -> Bnode { pfx = n.pfx; v = f n.v; l = map f n.l; r = map f n.r }

let filter pred t =
  fold (fun p v acc -> if pred p v then add p v acc else acc) t empty

let covered p t =
  let lq = Prefix.length p in
  let rec go t =
    match t with
    | Empty -> []
    | _ ->
      let pfx, _, l, r = parts t in
      let lp = Prefix.length pfx in
      let d = first_diff pfx p in
      if d = lq then
        (* The node's prefix sits inside [p]; so does its whole
           subtree.  Collect it in ascending order. *)
        List.rev (fold (fun q x acc -> (q, x) :: acc) t [])
      else if d = lp then
        (* [p] strictly extends the node's prefix: any covered binding
           lives down [p]'s branch. *)
        go (if Prefix.bit p lp then r else l)
      else []
  in
  go t
