open Dbgp_types

type params = { n : int; m : int; alpha : float; beta : float; plane : float }

let default = { n = 1000; m = 2; alpha = 0.15; beta = 0.25; plane = 1000. }

let generate rng p =
  if p.n < 2 then invalid_arg "Brite.generate: need at least 2 ASes";
  if p.m < 1 then invalid_arg "Brite.generate: m must be >= 1";
  if p.alpha <= 0. || p.alpha > 1. then invalid_arg "Brite.generate: bad alpha";
  if p.beta <= 0. then invalid_arg "Brite.generate: bad beta";
  let xs = Array.init p.n (fun _ -> Prng.float rng p.plane) in
  let ys = Array.init p.n (fun _ -> Prng.float rng p.plane) in
  let l = p.plane *. sqrt 2. in
  let dist i j = sqrt (((xs.(i) -. xs.(j)) ** 2.) +. ((ys.(i) -. ys.(j)) ** 2.)) in
  let waxman i j = p.alpha *. exp (-.dist i j /. (p.beta *. l)) in
  (* Incremental growth: node v joins to [min v m] distinct earlier nodes,
     drawn with probability proportional to the Waxman factor.  [taken]
     marks the nodes v has chosen so far and is cleared after each v;
     the per-node table only replays today's edge order. *)
  let edges = ref [] in
  let taken = Array.make p.n false and weights = Array.make p.n 0. in
  for v = 1 to p.n - 1 do
    let chosen = Hashtbl.create 4 in
    let want = min v p.m and count = ref 0 in
    for u = 0 to v - 1 do
      weights.(u) <- waxman v u
    done;
    let choose u =
      taken.(u) <- true;
      incr count;
      Hashtbl.replace chosen u ()
    in
    while !count < want do
      let total =
        let t = ref 0. in
        for u = 0 to v - 1 do
          if not taken.(u) then t := !t +. weights.(u)
        done;
        !t
      in
      if total <= 0. then begin
        (* Degenerate weights: fall back to a uniform draw. *)
        let remaining = List.init v Fun.id |> List.filter (fun u -> not taken.(u)) in
        choose (List.nth remaining (Prng.int rng (List.length remaining)))
      end
      else begin
        let target = Prng.float rng total in
        let acc = ref 0. and pick = ref (-1) in
        for u = 0 to v - 1 do
          if !pick < 0 && not taken.(u) then begin
            acc := !acc +. weights.(u);
            if !acc >= target then pick := u
          end
        done;
        choose (if !pick < 0 then v - 1 else !pick)
      end
    done;
    Hashtbl.iter
      (fun u () ->
        taken.(u) <- false;
        edges := (v, u) :: !edges)
      chosen
  done;
  (* Orient links customer -> provider.  Rank by final degree (ties by
     lower id); the higher-ranked endpoint is the provider.  A total order
     on endpoints makes the provider hierarchy acyclic. *)
  let deg = Array.make p.n 0 in
  List.iter
    (fun (a, b) ->
      deg.(a) <- deg.(a) + 1;
      deg.(b) <- deg.(b) + 1)
    !edges;
  let rank v = (deg.(v), -v) in
  let g = As_graph.create p.n in
  List.iter
    (fun (a, b) ->
      if rank a < rank b then As_graph.add_customer_provider g ~customer:a ~provider:b
      else As_graph.add_customer_provider g ~customer:b ~provider:a)
    !edges;
  g
