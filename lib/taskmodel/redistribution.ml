module P = Mcs_platform.Platform

(* [Float.min] without its runtime call: the stdlib's inlined version
   tests sign bits through [caml_signbit], a C call, whenever the first
   comparison fails. It returns the operand [Float.min] returns, signed
   zeros and a single NaN included. Local, because under the dev
   profile's [-opaque] a helper in another module is a real call that
   boxes its floats. *)
let[@inline] fmin (x : float) y =
  if y < x then y
  else if x < y then x
  else if x = y then if y = 0. && 1. /. y < 0. then y else x
  else if y <> y then y
  else x

let route_bandwidth platform ~src_cluster ~dst_cluster =
  let src_fabric = P.fabric_bandwidth platform src_cluster in
  if src_cluster = dst_cluster then src_fabric
  else begin
    let narrow = fmin src_fabric (P.fabric_bandwidth platform dst_cluster) in
    if P.same_switch platform src_cluster dst_cluster then narrow
    else fmin narrow (P.backbone_bandwidth platform)
  end

let rate platform ~src_cluster ~dst_cluster ~src_procs ~dst_procs =
  if src_procs < 1 || dst_procs < 1 then
    invalid_arg "Redistribution.rate: processor count < 1";
  let streams = float_of_int (Int.min src_procs dst_procs) in
  fmin
    (streams *. P.nic_bandwidth platform)
    (route_bandwidth platform ~src_cluster ~dst_cluster)

let transfer_time platform ~src_cluster ~dst_cluster ~src_procs ~dst_procs
    ~bytes =
  if bytes <= 0. then 0.
  else begin
    let r = rate platform ~src_cluster ~dst_cluster ~src_procs ~dst_procs in
    P.latency platform +. (bytes /. r)
  end

let same_procs (a : int array) (b : int array) =
  let n = Array.length a in
  n = Array.length b
  &&
  (* Equal in order, or else unequal sums or xors, decide without
     allocating; only the rest are sorted and compared. *)
  let i = ref 0 in
  while !i < n && a.(!i) = b.(!i) do
    incr i
  done;
  !i = n
  ||
  let sum = ref 0 and xor = ref 0 in
  for k = !i to n - 1 do
    sum := !sum + a.(k) - b.(k);
    xor := !xor lxor a.(k) lxor b.(k)
  done;
  !sum = 0 && !xor = 0
  &&
  let sa = Array.sub a !i (n - !i) and sb = Array.sub b !i (n - !i) in
  Array.sort Int.compare sa;
  Array.sort Int.compare sb;
  let k = ref 0 in
  while !k < n - !i && sa.(!k) = sb.(!k) do
    incr k
  done;
  !k = n - !i

let estimate platform ~src_cluster ~src_procs ~dst_cluster ~dst_procs ~bytes =
  if bytes <= 0. then 0.
  else if src_cluster = dst_cluster && same_procs src_procs dst_procs then 0.
  else
    transfer_time platform ~src_cluster ~dst_cluster
      ~src_procs:(Int.max 1 (Array.length src_procs))
      ~dst_procs:(Int.max 1 (Array.length dst_procs))
      ~bytes
