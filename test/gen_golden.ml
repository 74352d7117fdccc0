(* Regenerate the differential golden transcripts.

   Usage:
     dune exec test/gen_golden.exe > test/golden_differential.txt
     dune exec test/gen_golden.exe sharded > test/golden_sharded.txt

   The sharded variant records the 1-domain digests of the sharded
   differential scenarios; the parallel suite reproduces them at 2 and
   4 domains (the determinism oracle).  The committed files were
   produced by the current speaker; regenerating only makes sense when
   an *intentional* behaviour change has been reviewed and the new
   fingerprints accepted. *)

module Differential = Dbgp_eval.Differential

let () =
  let sharded = Array.length Sys.argv > 1 && Sys.argv.(1) = "sharded" in
  List.iter
    (fun name ->
      if String.starts_with ~prefix:"sharded-" name = sharded then
        print_endline (Differential.to_line (Differential.run name)))
    Differential.scenarios
