module Prng = Mcs_prng.Prng
module Task = Mcs_taskmodel.Task
module Random_gen = Mcs_ptg.Random_gen

type family =
  | Random_ptgs of Task.complexity_class
  | Random_mixed_scenarios
  | Fft_ptgs
  | Strassen_ptgs

let family_name = function
  | Random_ptgs Task.Class_stencil -> "random(a.d)"
  | Random_ptgs Task.Class_sort -> "random(a.d.log d)"
  | Random_ptgs Task.Class_matmul -> "random(d^3/2)"
  | Random_ptgs Task.Class_mixed -> "random(mixed)"
  | Random_mixed_scenarios -> "random"
  | Fft_ptgs -> "FFT"
  | Strassen_ptgs -> "Strassen"

let family_of_string = function
  | "random" -> Ok Random_mixed_scenarios
  | "fft" -> Ok Fft_ptgs
  | "strassen" -> Ok Strassen_ptgs
  | s -> Error ("unknown family " ^ s)

let paper_counts = [ 2; 4; 6; 8; 10 ]

let random_params rng class_ =
  {
    Random_gen.tasks = Prng.choose rng [| 10; 20; 50 |];
    width = Prng.choose rng [| 0.2; 0.5; 0.8 |];
    regularity = Prng.choose rng [| 0.2; 0.8 |];
    density = Prng.choose rng [| 0.2; 0.8 |];
    jump = Prng.choose rng [| 1; 2; 4 |];
    class_;
  }

let draw rng family ~count =
  if count < 1 then invalid_arg "Workload.draw: count < 1";
  List.init count (fun id ->
      match family with
      | Random_ptgs class_ ->
        Random_gen.generate ~id rng (random_params rng class_)
      | Random_mixed_scenarios ->
        let class_ =
          Prng.choose rng
            [|
              Task.Class_stencil; Task.Class_sort; Task.Class_matmul;
              Task.Class_mixed;
            |]
        in
        Random_gen.generate ~id rng (random_params rng class_)
      | Fft_ptgs ->
        let points = Prng.choose rng [| 4; 8; 16 |] in
        Mcs_ptg.Fft.generate ~id ~points rng
      | Strassen_ptgs -> Mcs_ptg.Strassen.generate ~id rng)

let releases rng ~count ~mean =
  if not (mean >= 0. && Float.is_finite mean) then
    invalid_arg (Printf.sprintf "Workload.releases: mean = %g" mean);
  let release = Array.make count 0. in
  for i = 1 to count - 1 do
    release.(i) <- release.(i - 1) +. Prng.exponential rng ~mean
  done;
  release
