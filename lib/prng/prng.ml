type t = { mutable s0 : int64; mutable s1 : int64; mutable s2 : int64; mutable s3 : int64 }

(* splitmix64: used only to expand the integer seed into the four words
   of xoshiro state, and to derive child seeds in [split]. *)
let splitmix64 state =
  let open Int64 in
  state := add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let of_seed64 seed64 =
  let st = ref seed64 in
  let s0 = splitmix64 st in
  let s1 = splitmix64 st in
  let s2 = splitmix64 st in
  let s3 = splitmix64 st in
  (* xoshiro must not start from the all-zero state. *)
  if Int64.logor (Int64.logor s0 s1) (Int64.logor s2 s3) = 0L then
    { s0 = 1L; s1 = s1; s2 = s2; s3 = s3 }
  else { s0; s1; s2; s3 }

let create ~seed = of_seed64 (Int64.of_int seed)
let copy t = { s0 = t.s0; s1 = t.s1; s2 = t.s2; s3 = t.s3 }

let rotl x k =
  Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

(* xoshiro256** next *)
let bits64 t =
  let open Int64 in
  let result = mul (rotl (mul t.s1 5L) 7) 9L in
  let tmp = shift_left t.s1 17 in
  t.s2 <- logxor t.s2 t.s0;
  t.s3 <- logxor t.s3 t.s1;
  t.s1 <- logxor t.s1 t.s2;
  t.s0 <- logxor t.s0 t.s3;
  t.s2 <- logxor t.s2 tmp;
  t.s3 <- rotl t.s3 45;
  result

let split t = of_seed64 (bits64 t)

let int t bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  (* Rejection sampling on the top bits to avoid modulo bias. *)
  let b = Int64.of_int bound in
  let rec draw () =
    let r = Int64.shift_right_logical (bits64 t) 1 in
    let v = Int64.rem r b in
    (* reject the tail of the last incomplete bucket *)
    if Int64.sub r v > Int64.sub (Int64.sub Int64.max_int b) 1L then draw ()
    else Int64.to_int v
  in
  draw ()

let int_in t ~lo ~hi =
  if hi < lo then invalid_arg "Prng.int_in: hi < lo";
  lo + int t (hi - lo + 1)

let float t bound =
  (* 53 random bits mapped to [0, 1). *)
  let r = Int64.shift_right_logical (bits64 t) 11 in
  let unit = Int64.to_float r *. 0x1.0p-53 in
  unit *. bound

let uniform t ~lo ~hi =
  if hi < lo then invalid_arg "Prng.uniform: hi < lo";
  lo +. float t (hi -. lo)

let bool t = Int64.logand (bits64 t) 1L = 1L

let bernoulli t ~p =
  if p <= 0. then false
  else if p >= 1. then true
  else float t 1. < p

let exponential t ~mean =
  let u = float t 1. in
  (* 1 - u is in (0, 1], so log is finite. *)
  -.mean *. log (1. -. u)

let choose t a =
  if Array.length a = 0 then invalid_arg "Prng.choose: empty array";
  a.(int t (Array.length a))
