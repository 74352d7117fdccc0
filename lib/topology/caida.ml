open Dbgp_types

type params = {
  n : int;
  tier1 : int;
  max_providers : int;
  multihome : float;
  peering : float;
}

let default =
  { n = 10_000; tier1 = 12; max_providers = 3; multihome = 0.45; peering = 0.25 }

(* ------------------------- generator ------------------------- *)

(* Preferential attachment over provider degree: new customers pick
   providers with probability proportional to [deg + 1], which is what
   produces the heavy power-law tail observed in the CAIDA
   AS-relationship snapshots — early (core) ASes accumulate thousands of
   customers while most of the graph stays single-homed stubs.

   Sampling runs on a Fenwick (binary indexed) tree over the weights so
   each pick is O(log n) instead of a linear accumulation scan — the
   difference between seconds and hours at 70k ASes.  The tree draws the
   same [1 + Prng.int total] target over the same total and resolves it
   to the same (first index whose running sum reaches the target) pick
   as the scan did, so topologies are seed-for-seed identical. *)
module Fenwick = struct
  type t = { tree : int array; mutable msb : int }

  (* All weights start at 1 (degree 0): tree.(i) holds the sum of the
     [i land -i] weights ending at 1-based position [i], which for the
     all-ones array is exactly [i land -i]. *)
  let create n =
    let tree = Array.init (n + 1) (fun i -> i land (-i)) in
    let msb = ref 1 in
    while !msb * 2 <= n do msb := !msb * 2 done;
    { tree; msb = !msb }

  let add t i delta =
    let n = Array.length t.tree - 1 in
    let i = ref (i + 1) in
    while !i <= n do
      t.tree.(!i) <- t.tree.(!i) + delta;
      i := !i + (!i land - !i)
    done

  (* Sum of weights in [0, bound). *)
  let prefix t bound =
    let acc = ref 0 and i = ref bound in
    while !i > 0 do
      acc := !acc + t.tree.(!i);
      i := !i - (!i land - !i)
    done;
    !acc

  (* Smallest 0-based index whose inclusive running sum reaches
     [target]; the caller guarantees [1 <= target <= prefix t bound]. *)
  let search t target =
    let n = Array.length t.tree - 1 in
    let pos = ref 0 and rem = ref target and step = ref t.msb in
    while !step > 0 do
      let next = !pos + !step in
      if next <= n && t.tree.(next) < !rem then begin
        rem := !rem - t.tree.(next);
        pos := next
      end;
      step := !step / 2
    done;
    !pos (* 1-based position is pos+1, so 0-based index is pos *)
end

(* One weighted draw among the not-[taken] ASes below [bound].  [fw]
   carries weight [deg+1] for available ASes and 0 for taken ones. *)
let pick_weighted rng fw ~bound =
  let total = Fenwick.prefix fw bound in
  if total <= 0 then None
  else begin
    let target = 1 + Prng.int rng total in
    Some (Fenwick.search fw target)
  end

let generate rng p =
  if p.n < 2 then invalid_arg "Caida.generate: need at least 2 ASes";
  if p.tier1 < 1 || p.tier1 > p.n then invalid_arg "Caida.generate: bad tier1";
  if p.max_providers < 1 then invalid_arg "Caida.generate: bad max_providers";
  if p.multihome < 0. || p.multihome >= 1. then
    invalid_arg "Caida.generate: multihome must be in [0, 1)";
  if p.peering < 0. then invalid_arg "Caida.generate: bad peering";
  let g = As_graph.create p.n in
  let deg = Array.make p.n 0 in
  (* Invariant: the Fenwick weight of [u] is [deg.(u) + 1] while [u] is
     available and 0 while taken (already picked for the current
     customer). *)
  let fw = Fenwick.create p.n in
  let taken = Array.make p.n false in
  let incr_deg u =
    deg.(u) <- deg.(u) + 1;
    if not taken.(u) then Fenwick.add fw u 1
  in
  let connect_cp ~customer ~provider =
    As_graph.add_customer_provider g ~customer ~provider;
    incr_deg customer;
    incr_deg provider
  in
  let connect_peer a b =
    As_graph.add_peering g a b;
    incr_deg a;
    incr_deg b
  in
  (* The transit-free core: a clique of mutual peers, like the CAIDA
     snapshots' tier-1 mesh.  Ids [0 .. tier1-1]. *)
  let tier1 = min p.tier1 p.n in
  for a = 0 to tier1 - 1 do
    for b = a + 1 to tier1 - 1 do
      connect_peer a b
    done
  done;
  (* Everyone else joins with one provider (guaranteeing connectivity)
     plus a geometric number of extra providers: each additional homing
     happens with probability [multihome], capped at [max_providers].
     Providers are drawn degree-proportionally from the earlier ASes. *)
  for v = max tier1 1 to p.n - 1 do
    let picked = ref [] in
    let want =
      let w = ref 1 in
      while !w < p.max_providers && Prng.float rng 1.0 < p.multihome do incr w done;
      min !w v
    in
    for _ = 1 to want do
      match pick_weighted rng fw ~bound:v with
      | Some u ->
        taken.(u) <- true;
        Fenwick.add fw u (-(deg.(u) + 1));
        picked := u :: !picked;
        connect_cp ~customer:v ~provider:u
      | None -> ()
    done;
    List.iter
      (fun u ->
        taken.(u) <- false;
        Fenwick.add fw u (deg.(u) + 1))
      !picked
  done;
  (* Settlement-free peering at the edge: roughly [peering * n] extra
     links between degree-proportionally drawn non-core ASes that have
     no relationship yet, mirroring the [a|b|0] rows of a serial-1
     file.  Peering never replaces an existing transit edge. *)
  if p.n > tier1 + 1 then begin
    let wanted = int_of_float (p.peering *. float_of_int p.n) in
    let attempts = ref (4 * wanted) in
    let added = ref 0 in
    while !added < wanted && !attempts > 0 do
      decr attempts;
      match
        ( pick_weighted rng fw ~bound:p.n,
          pick_weighted rng fw ~bound:p.n )
      with
      | Some a, Some b
        when a <> b
             && (a >= tier1 || b >= tier1)
             && As_graph.view_of g ~me:a ~neighbor:b = None ->
        connect_peer a b;
        incr added
      | _ -> ()
    done
  end;
  g

(* ------------------------- serial-1 loader ------------------------- *)

(* CAIDA AS-relationship "serial-1" format: one relationship per line,
   [provider|customer|-1] for transit and [peer|peer|0] for peering,
   [#]-prefixed comment lines.  Real snapshots name ~70-80k ASes with
   sparse 32-bit AS numbers; they are compacted to dense graph indices
   in order of first appearance. *)
let parse_serial1 text =
  let ids = Hashtbl.create 1024 in
  let order = ref [] in
  let count = ref 0 in
  let intern asn =
    match Hashtbl.find_opt ids asn with
    | Some i -> i
    | None ->
      let i = !count in
      incr count;
      Hashtbl.replace ids asn i;
      order := asn :: !order;
      i
  in
  let edges = ref [] in
  let lineno = ref 0 in
  String.split_on_char '\n' text
  |> List.iter (fun line ->
         incr lineno;
         let line = String.trim line in
         if line <> "" && line.[0] <> '#' then
           match String.split_on_char '|' line with
           | a :: b :: rel :: _ -> (
             match
               (int_of_string_opt a, int_of_string_opt b, String.trim rel)
             with
             | Some a, Some b, ("-1" | "0") when a <> b ->
               let rel = if String.trim rel = "-1" then `Transit else `Peer in
               (* Left-to-right interning: tuple components evaluate
                  right-to-left, which would flip first-appearance
                  order. *)
               let ia = intern a in
               let ib = intern b in
               edges := (ia, ib, rel) :: !edges
             | _ ->
               invalid_arg
                 (Printf.sprintf "Caida.parse_serial1: bad line %d: %S"
                    !lineno line) )
           | _ ->
             invalid_arg
               (Printf.sprintf "Caida.parse_serial1: bad line %d: %S" !lineno
                  line));
  if !count < 2 then
    invalid_arg "Caida.parse_serial1: need at least two ASes";
  let g = As_graph.create !count in
  List.iter
    (fun (a, b, rel) ->
      match rel with
      | `Transit -> As_graph.add_customer_provider g ~customer:b ~provider:a
      | `Peer -> As_graph.add_peering g a b)
    (List.rev !edges);
  let asns = Array.make !count 0 in
  List.iteri (fun i asn -> asns.(!count - 1 - i) <- asn) !order;
  (g, asns)
