let c name procs gflops switch =
  { Platform.cluster_name = name; procs; gflops; switch }

let lille () =
  Platform.make ~name:"Lille"
    [ c "Chuque" 53 3.647 0; c "Chti" 20 4.311 0; c "Chicon" 26 4.384 0 ]

let nancy () =
  Platform.make ~name:"Nancy"
    [ c "Grillon" 47 3.379 0; c "Grelon" 120 3.185 1 ]

let rennes () =
  Platform.make ~name:"Rennes"
    [ c "Parasol" 64 3.573 0; c "Paravent" 99 3.364 0; c "Paraquad" 66 4.603 0 ]

let sophia () =
  Platform.make ~name:"Sophia"
    [ c "Azur" 74 3.258 0; c "Helios" 56 3.675 1; c "Sol" 50 4.389 2 ]

let all () = [ lille (); nancy (); rennes (); sophia () ]

(* The four sites federated into one 11-cluster, 675-processor platform
   (one switch per site), the scale target of the sharded serving
   engine: its cluster set partitions cleanly into 4+ shards. *)
let grid () =
  Platform.make ~name:"Grid5000"
    [
      c "Chuque" 53 3.647 0; c "Chti" 20 4.311 0; c "Chicon" 26 4.384 0;
      c "Grillon" 47 3.379 1; c "Grelon" 120 3.185 1;
      c "Parasol" 64 3.573 2; c "Paravent" 99 3.364 2; c "Paraquad" 66 4.603 2;
      c "Azur" 74 3.258 3; c "Helios" 56 3.675 3; c "Sol" 50 4.389 3;
    ]

let names = [ "lille"; "nancy"; "rennes"; "sophia"; "grid" ]

let by_name s =
  match String.lowercase_ascii s with
  | "lille" -> Ok (lille ())
  | "nancy" -> Ok (nancy ())
  | "rennes" -> Ok (rennes ())
  | "sophia" -> Ok (sophia ())
  | "grid" -> Ok (grid ())
  | _ ->
    Error
      (Printf.sprintf "unknown site: %s (%s)" s (String.concat "|" names))
