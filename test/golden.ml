(* The golden-file loader both differential suites share: each line of
   a golden file is one {!Dbgp_eval.Differential.to_line}, and each must
   be reproduced by a fresh run of its scenario. *)

module Differential = Dbgp_eval.Differential

let load file =
  let ic = open_in file in
  let rec go acc =
    match input_line ic with
    | line -> (
      match Differential.of_line line with
      | Some d -> go (d :: acc)
      | None -> Alcotest.fail ("malformed golden line: " ^ line) )
    | exception End_of_file ->
      close_in ic;
      List.rev acc
  in
  go []

(* Run every golden's scenario on [domains] worker domains and compare. *)
let check_file ~domains file =
  List.iter
    (fun g ->
      let name = g.Differential.scenario in
      Alcotest.(check bool)
        (name ^ ": golden fingerprint")
        true
        (Differential.equal g (Differential.run ~domains name)))
    (load file)
