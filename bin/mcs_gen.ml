(* PTG generator CLI: draw a random/FFT/Strassen parallel task graph and
   print it as Graphviz DOT (or a one-line summary with --summary). *)

open Cmdliner

let generate kind tasks width regularity density jump points seed summary =
  let rng = Mcs_prng.Prng.create ~seed in
  let ptg =
    Cli.checked @@ fun () ->
    match kind with
    | "random" ->
      Mcs_ptg.Random_gen.generate rng
        {
          Mcs_ptg.Random_gen.tasks;
          width;
          regularity;
          density;
          jump;
          class_ = Mcs_taskmodel.Task.Class_mixed;
        }
    | "fft" -> Mcs_ptg.Fft.generate ~points rng
    | "strassen" -> Mcs_ptg.Strassen.generate rng
    | other -> Cli.die ("unknown kind: " ^ other ^ " (random|fft|strassen)")
  in
  if summary then begin
    Format.printf "%a@." Mcs_ptg.Ptg.pp ptg;
    Format.printf "%a@." Mcs_ptg.Analysis.pp (Mcs_ptg.Analysis.analyse ptg)
  end
  else print_string (Mcs_ptg.Ptg.to_dot ptg)

let kind =
  Arg.(value & pos 0 string "random"
       & info [] ~docv:"KIND" ~doc:"random, fft or strassen")

let tasks =
  Arg.(value & opt int 20 & info [ "n"; "tasks" ] ~doc:"number of tasks (random)")

let width =
  Arg.(value & opt float 0.5 & info [ "width" ] ~doc:"width parameter (random)")

let regularity =
  Arg.(value & opt float 0.5 & info [ "regularity" ] ~doc:"regularity (random)")

let density =
  Arg.(value & opt float 0.5 & info [ "density" ] ~doc:"density (random)")

let jump =
  Arg.(value & opt int 1 & info [ "jump" ] ~doc:"jump levels (random)")

let points =
  Arg.(value & opt int 8 & info [ "points" ] ~doc:"FFT points (power of two)")

let summary =
  Arg.(value & flag & info [ "summary" ] ~doc:"print a one-line summary")

let () =
  Cli.eval "mcs_gen" ~doc:"generate a parallel task graph"
    Term.(
      const generate $ kind $ tasks $ width $ regularity $ density $ jump
      $ points $ Flags.seed $ summary)
