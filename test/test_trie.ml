open Dbgp_types
module Trie = Dbgp_trie.Prefix_trie
module Fib = Dbgp_trie.Fib_index

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let p = Prefix.of_string
let ip = Ipv4.of_string

let test_add_find () =
  let t = Trie.empty |> Trie.add (p "10.0.0.0/8") "a" |> Trie.add (p "10.1.0.0/16") "b" in
  check "find /8" true (Trie.find (p "10.0.0.0/8") t = Some "a");
  check "find /16" true (Trie.find (p "10.1.0.0/16") t = Some "b");
  check "exact only" true (Trie.find (p "10.0.0.0/9") t = None);
  check "mem" true (Trie.mem (p "10.0.0.0/8") t);
  check_int "cardinal" 2 (Trie.cardinal t)

let test_replace () =
  let t = Trie.empty |> Trie.add (p "10.0.0.0/8") 1 |> Trie.add (p "10.0.0.0/8") 2 in
  check "replaced" true (Trie.find (p "10.0.0.0/8") t = Some 2);
  check_int "no dup" 1 (Trie.cardinal t)

let test_remove () =
  let t = Trie.empty |> Trie.add (p "10.0.0.0/8") 1 |> Trie.add (p "10.1.0.0/16") 2 in
  let t = Trie.remove (p "10.0.0.0/8") t in
  check "gone" true (Trie.find (p "10.0.0.0/8") t = None);
  check "sibling kept" true (Trie.find (p "10.1.0.0/16") t = Some 2);
  check "remove absent is noop" true
    (Trie.cardinal (Trie.remove (p "99.0.0.0/8") t) = 1);
  check "empty after full removal" true
    (Trie.is_empty (Trie.remove (p "10.1.0.0/16") t))

let test_update () =
  let t = Trie.update (p "1.0.0.0/8") (function None -> Some 5 | Some _ -> None) Trie.empty in
  check "inserted" true (Trie.find (p "1.0.0.0/8") t = Some 5);
  let t = Trie.update (p "1.0.0.0/8") (Option.map succ) t in
  check "modified" true (Trie.find (p "1.0.0.0/8") t = Some 6);
  let t = Trie.update (p "1.0.0.0/8") (fun _ -> None) t in
  check "deleted" true (Trie.is_empty t)

let test_longest_match () =
  let t =
    Trie.empty
    |> Trie.add (p "0.0.0.0/0") "default"
    |> Trie.add (p "10.0.0.0/8") "eight"
    |> Trie.add (p "10.1.0.0/16") "sixteen"
  in
  let lm a = Option.map snd (Trie.longest_match (ip a) t) in
  check "most specific" true (lm "10.1.2.3" = Some "sixteen");
  check "middle" true (lm "10.2.0.1" = Some "eight");
  check "default" true (lm "192.0.2.1" = Some "default");
  check "none" true
    (Trie.longest_match (ip "192.0.2.1") (Trie.remove (p "0.0.0.0/0") t) = None)

let test_matches_order () =
  let t =
    Trie.empty
    |> Trie.add (p "0.0.0.0/0") 0
    |> Trie.add (p "10.0.0.0/8") 8
    |> Trie.add (p "10.1.0.0/16") 16
  in
  let ms = Trie.matches (ip "10.1.9.9") t in
  check "most specific first" true (List.map snd ms = [ 16; 8; 0 ])

let test_covered () =
  let t =
    Trie.empty
    |> Trie.add (p "10.0.0.0/8") 'a'
    |> Trie.add (p "10.1.0.0/16") 'b'
    |> Trie.add (p "11.0.0.0/8") 'c'
  in
  let cs = Trie.covered (p "10.0.0.0/8") t in
  check_int "two covered" 2 (List.length cs);
  check "c excluded" false (List.exists (fun (_, v) -> v = 'c') cs)

let test_fold_order () =
  let t =
    Trie.of_list
      [ (p "192.0.0.0/8", 3); (p "10.0.0.0/8", 1); (p "10.0.0.0/16", 2) ]
  in
  let keys = List.map (fun (q, _) -> Prefix.to_string q) (Trie.bindings t) in
  check "prefix order" true
    (keys = [ "10.0.0.0/8"; "10.0.0.0/16"; "192.0.0.0/8" ])

let test_map_filter () =
  let t = Trie.of_list [ (p "1.0.0.0/8", 1); (p "2.0.0.0/8", 2) ] in
  let doubled = Trie.map (fun v -> v * 2) t in
  check "map" true (Trie.find (p "2.0.0.0/8") doubled = Some 4);
  let odd = Trie.filter (fun _ v -> v mod 2 = 1) t in
  check_int "filter" 1 (Trie.cardinal odd)

(* The pre-compression binary trie, verbatim from the repo's history:
   the reference model the path-compressed implementation must agree
   with on every observable. *)
module Ref_trie = struct
  type 'a t = Empty | Node of 'a option * 'a t * 'a t

  let empty = Empty

  let node v l r =
    match (v, l, r) with None, Empty, Empty -> Empty | _ -> Node (v, l, r)

  let add p value t =
    let len = Prefix.length p in
    let rec go i t =
      let v, l, r =
        match t with Empty -> (None, Empty, Empty) | Node (v, l, r) -> (v, l, r)
      in
      if i = len then Node (Some value, l, r)
      else if Prefix.bit p i then Node (v, l, go (i + 1) r)
      else Node (v, go (i + 1) l, r)
    in
    go 0 t

  let update p f t =
    let len = Prefix.length p in
    let rec go i t =
      let v, l, r =
        match t with Empty -> (None, Empty, Empty) | Node (v, l, r) -> (v, l, r)
      in
      if i = len then node (f v) l r
      else if Prefix.bit p i then node v l (go (i + 1) r)
      else node v (go (i + 1) l) r
    in
    go 0 t

  let remove p t = update p (fun _ -> None) t

  let find p t =
    let len = Prefix.length p in
    let rec go i t =
      match t with
      | Empty -> None
      | Node (v, l, r) ->
        if i = len then v
        else if Prefix.bit p i then go (i + 1) r
        else go (i + 1) l
    in
    go 0 t

  let addr_bit a i = Ipv4.to_int a land (1 lsl (31 - i)) <> 0

  let matches addr t =
    let rec go i t acc =
      match t with
      | Empty -> acc
      | Node (v, l, r) ->
        let acc =
          match v with
          | None -> acc
          | Some x -> (Prefix.make addr i, x) :: acc
        in
        if i = 32 then acc
        else if addr_bit addr i then go (i + 1) r acc
        else go (i + 1) l acc
    in
    go 0 t []

  let longest_match addr t =
    match matches addr t with [] -> None | best :: _ -> Some best

  let rec fold_at p f t acc =
    match t with
    | Empty -> acc
    | Node (v, l, r) ->
      let acc = match v with None -> acc | Some x -> f p x acc in
      ( match Prefix.split p with
        | None -> acc
        | Some (lo, hi) -> fold_at hi f r (fold_at lo f l acc) )

  let fold f t acc =
    let items = fold_at Prefix.default (fun p v acc -> (p, v) :: acc) t [] in
    List.fold_left (fun acc (p, v) -> f p v acc) acc (List.rev items)

  let bindings t = List.rev (fold (fun p v acc -> (p, v) :: acc) t [])

  let covered p t =
    bindings t |> List.filter (fun (q, _) -> Prefix.subsumes p q)
end

(* Seeded random tables emphasizing exactly what path compression can
   break: /0 and /32 extremes, and sibling pairs that differ only in
   the bit right at the prefix boundary. *)
let qcheck_vs_reference =
  let open QCheck in
  let gen_prefix =
    Gen.(
      let gen_len = oneof [ oneofl [ 0; 1; 31; 32 ]; int_bound 32 ] in
      map2
        (fun net len -> Prefix.make (Ipv4.of_int net) len)
        (int_bound 0xFFFFFFFF) gen_len)
  in
  let with_siblings =
    Gen.(
      list_size (int_range 0 48) (pair gen_prefix (pair bool (int_bound 100)))
      |> map
           (List.concat_map (fun (q, (sib, v)) ->
                let l = Prefix.length q in
                if sib && l > 0 then
                  let flipped =
                    Ipv4.of_int
                      (Ipv4.to_int (Prefix.network q) lxor (1 lsl (32 - l)))
                  in
                  [ (q, v); (Prefix.make flipped l, v + 1) ]
                else [ (q, v) ])))
  in
  let arb_ops = make with_siblings in
  let build ops =
    ( List.fold_left (fun t (q, v) -> Trie.add q v t) Trie.empty ops,
      List.fold_left (fun t (q, v) -> Ref_trie.add q v t) Ref_trie.empty ops )
  in
  let probes ops =
    Ipv4.of_int 0 :: Ipv4.of_int 0xFFFFFFFF
    :: List.concat_map
         (fun (q, _) ->
           [ Prefix.network q;
             Ipv4.of_int (Ipv4.to_int (Prefix.network q) lxor 1) ])
         ops
  in
  [ Test.make ~name:"compressed bindings = reference bindings" ~count:300
      arb_ops (fun ops ->
        let t, r = build ops in
        Trie.bindings t = Ref_trie.bindings r);
    Test.make ~name:"compressed longest_match/matches = reference" ~count:300
      arb_ops (fun ops ->
        let t, r = build ops in
        List.for_all
          (fun a ->
            Trie.longest_match a t = Ref_trie.longest_match a r
            && Trie.matches a t = Ref_trie.matches a r)
          (probes ops));
    Test.make ~name:"compressed covered = reference covered" ~count:300
      arb_ops (fun ops ->
        let t, r = build ops in
        Trie.covered Prefix.default t = Ref_trie.covered Prefix.default r
        && List.for_all
             (fun (q, _) -> Trie.covered q t = Ref_trie.covered q r)
             ops);
    Test.make ~name:"removal keeps agreeing (collapse paths)" ~count:300
      arb_ops (fun ops ->
        let t, r = build ops in
        (* Remove every other prefix: exercises the smart-constructor
           collapse of one-child interior nodes. *)
        let doomed = List.filteri (fun i _ -> i mod 2 = 0) ops in
        let t =
          List.fold_left (fun t (q, _) -> Trie.remove q t) t doomed
        in
        let r =
          List.fold_left (fun r (q, _) -> Ref_trie.remove q r) r doomed
        in
        Trie.bindings t = Ref_trie.bindings r
        && List.for_all
             (fun a -> Trie.longest_match a t = Ref_trie.longest_match a r)
             (probes ops));
    Test.make ~name:"longest_covering = deepest subsuming binding" ~count:300
      arb_ops (fun ops ->
        let t, r = build ops in
        let deepest q =
          List.fold_left
            (fun acc (q', v) ->
              if not (Prefix.subsumes q' q) then acc
              else
                match acc with
                | Some (d, _) when Prefix.length d >= Prefix.length q' -> acc
                | _ -> Some (q', v))
            None (Ref_trie.bindings r)
        in
        List.for_all
          (fun (q, _) ->
            let wider = Prefix.make (Prefix.network q) (Prefix.length q / 2) in
            List.for_all
              (fun q -> Trie.longest_covering q t = deepest q)
              [ q; wider; Prefix.default ])
          ops);
    Test.make ~name:"update parity with reference" ~count:300 arb_ops
      (fun ops ->
        let t, r = build ops in
        let f = function None -> Some 999 | Some v -> if v mod 3 = 0 then None else Some (v + 1) in
        let t = List.fold_left (fun t (q, _) -> Trie.update q f t) t ops in
        let r = List.fold_left (fun r (q, _) -> Ref_trie.update q f r) r ops in
        Trie.bindings t = Ref_trie.bindings r
        && List.for_all
             (fun (q, _) -> Trie.find q t = Ref_trie.find q r)
             ops) ]

(* Model-based property tests against Prefix.Map and a linear scan. *)
let qcheck =
  let open QCheck in
  let genp =
    Gen.map
      (fun (net, len) -> Prefix.make (Ipv4.of_int (net lsl 12)) len)
      Gen.(pair (int_bound 0xFFFFF) (int_bound 20))
  in
  let arb_ops = make Gen.(list_size (int_range 0 60) (pair genp (int_bound 100))) in
  [ Test.make ~name:"trie agrees with Prefix.Map on add" ~count:200 arb_ops
      (fun ops ->
        let t = List.fold_left (fun t (q, v) -> Trie.add q v t) Trie.empty ops in
        let m =
          List.fold_left (fun m (q, v) -> Prefix.Map.add q v m) Prefix.Map.empty ops
        in
        Trie.bindings t = Prefix.Map.bindings m);
    Test.make ~name:"longest_match agrees with linear scan" ~count:200
      (make Gen.(pair (list_size (int_range 0 40) (pair genp (int_bound 100))) (int_bound 0xFFFFFFF)))
      (fun (ops, addr_seed) ->
        let addr = Ipv4.of_int (addr_seed lsl 4) in
        let t = List.fold_left (fun t (q, v) -> Trie.add q v t) Trie.empty ops in
        let m =
          List.fold_left (fun m (q, v) -> Prefix.Map.add q v m) Prefix.Map.empty ops
        in
        let linear =
          Prefix.Map.fold
            (fun q v acc ->
              if Prefix.mem addr q then
                match acc with
                | Some (q', _) when Prefix.length q' >= Prefix.length q -> acc
                | _ -> Some (q, v)
              else acc)
            m None
        in
        Trie.longest_match addr t = linear);
    Test.make ~name:"remove really removes" ~count:200 arb_ops (fun ops ->
        let t = List.fold_left (fun t (q, v) -> Trie.add q v t) Trie.empty ops in
        List.for_all
          (fun (q, _) -> Trie.find q (Trie.remove q t) = None)
          ops) ]

(* ------------------------- flat FIB index ------------------------- *)

let reference_hop table addr =
  List.fold_left
    (fun acc (q, nh) ->
      if not (Prefix.mem addr q) then acc
      else
        match acc with
        | Some (d, _) when Prefix.length d >= Prefix.length q -> acc
        | _ -> Some (q, nh))
    None table
  |> Option.map snd

let test_fib_empty () =
  let ix = Fib.create 0 in
  check_int "empty" 0 (Fib.cardinal ix);
  check "miss" true (Fib.find ix (ip "10.1.2.3") = None);
  check "zero address" true (Fib.find ix Ipv4.any = None)

(* /32 hosts whose probe chains start at the last slot wrap to slot 0:
   every one must still be found, and an absent key homed there must
   walk the wrapped chain to a miss. *)
let homed_last ix n =
  let last = Fib.capacity ix - 1 in
  let rec go a acc k =
    if k = 0 then List.rev acc
    else
      let q = Prefix.make (Ipv4.of_int a) 32 in
      if Fib.home ix q = last then go (a + 1) (q :: acc) (k - 1)
      else go (a + 1) acc k
  in
  go 0x0A000000 [] n

let test_fib_wrap () =
  let ix = Fib.create 0 in
  let cap = Fib.capacity ix in
  match homed_last ix 5 with
  | absent :: chain ->
    List.iteri (fun i q -> Fib.add ix q (Ipv4.of_int (i + 1))) chain;
    check_int "no growth" cap (Fib.capacity ix);
    List.iteri
      (fun i q ->
        check "wrapped key found" true
          (Fib.find ix (Prefix.network q) = Some (Ipv4.of_int (i + 1))))
      chain;
    check "absent key misses" true (Fib.find ix (Prefix.network absent) = None);
    Fib.add ix (List.hd chain) (ip "9.9.9.9");
    check_int "replace keeps count" 4 (Fib.cardinal ix);
    check "replaced" true
      (Fib.find ix (Prefix.network (List.hd chain)) = Some (ip "9.9.9.9"))
  | [] -> assert false

let fib_qcheck =
  let open QCheck in
  (* Networks cluster around a few bases so prefixes nest; lengths hit
     /0 and /32 often. *)
  let gen_prefix =
    Gen.(
      map3
        (fun base off len ->
          Prefix.make (Ipv4.of_int ((base lsl 24) lor off)) len)
        (int_bound 3) (int_bound 0xFFFF)
        (oneof [ oneofl [ 0; 8; 24; 32 ]; int_bound 32 ]))
  in
  let gen_table =
    Gen.(list_size (int_range 0 80) (pair gen_prefix (int_bound 0xFFFF)))
  in
  let probes table =
    Ipv4.any :: Ipv4.of_int 0xFFFFFFFF
    :: List.concat_map
         (fun (q, _) ->
           let n = Ipv4.to_int (Prefix.network q) in
           [ Prefix.network q; Ipv4.of_int (n lor 0xFF); Ipv4.of_int (n lxor 1) ])
         table
  in
  let build table =
    let ix = Fib.create 0 in
    List.iter (fun (q, h) -> Fib.add ix q (Ipv4.of_int h)) table;
    ix
  in
  (* Later bindings replace earlier ones for the same prefix. *)
  let last_wins table =
    List.fold_left
      (fun m (q, h) -> Prefix.Map.add q (Ipv4.of_int h) m)
      Prefix.Map.empty table
    |> Prefix.Map.bindings
  in
  [ Test.make ~name:"find = linear scan for the deepest match" ~count:300
      (make gen_table) (fun table ->
        let ix = build table and ref_table = last_wins table in
        Fib.cardinal ix = List.length ref_table
        && Fib.capacity ix >= 2 * Fib.cardinal ix
        && List.for_all
             (fun a -> Fib.find ix a = reference_hop ref_table a)
             (probes table));
    Test.make ~name:"wrapping probe chains = linear scan" ~count:200
      (make Gen.(pair (int_range 1 7) (list_size (int_range 0 3) (pair gen_prefix nat))))
      (fun (k, extra) ->
        (* Up to seven keys homed at the last slot plus a few others:
           still at most half full, so the chain stays wrapped. *)
        let ix = Fib.create 0 in
        let chain =
          List.map (fun q -> (q, Ipv4.to_int (Prefix.network q))) (homed_last ix k)
        in
        let table = chain @ List.filteri (fun i _ -> i + k < 8) extra in
        List.iter (fun (q, h) -> Fib.add ix q (Ipv4.of_int h)) table;
        Fib.capacity ix = 16
        && List.for_all
             (fun a -> Fib.find ix a = reference_hop (last_wins table) a)
             (probes table)) ]

let () =
  Alcotest.run "trie"
    [ ("basics",
       [ Alcotest.test_case "add/find" `Quick test_add_find;
         Alcotest.test_case "replace" `Quick test_replace;
         Alcotest.test_case "remove" `Quick test_remove;
         Alcotest.test_case "update" `Quick test_update ]);
      ("lookup",
       [ Alcotest.test_case "longest match" `Quick test_longest_match;
         Alcotest.test_case "matches order" `Quick test_matches_order;
         Alcotest.test_case "covered" `Quick test_covered ]);
      ("traversal",
       [ Alcotest.test_case "fold order" `Quick test_fold_order;
         Alcotest.test_case "map/filter" `Quick test_map_filter ]);
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck);
      ( "fib index",
        [ Alcotest.test_case "empty" `Quick test_fib_empty;
          Alcotest.test_case "wrapping chain" `Quick test_fib_wrap ]
        @ List.map QCheck_alcotest.to_alcotest fib_qcheck );
      ( "vs-reference",
        List.map QCheck_alcotest.to_alcotest qcheck_vs_reference ) ]
