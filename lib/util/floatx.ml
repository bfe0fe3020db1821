let eps = 1e-9

let approx_eq ?(tol = eps) a b =
  let d = Float.abs (a -. b) in
  d <= tol || d <= tol *. Float.max (Float.abs a) (Float.abs b)

let ( <=. ) a b = a <= b +. eps
let ( >=. ) a b = a >= b -. eps
let ( <. ) a b = a < b -. eps
let ( >. ) a b = a > b +. eps

let clamp ~lo ~hi x =
  if x < lo then lo else if x > hi then hi else x

(* Kahan summation: the correction term [c] accumulates the low-order
   bits lost when adding small values to a large running total. *)
let sum a =
  let total = ref 0. and c = ref 0. in
  for i = 0 to Array.length a - 1 do
    let y = a.(i) -. !c in
    let t = !total +. y in
    c := t -. !total -. y;
    total := t
  done;
  !total

let sum_list l = sum (Array.of_list l)

let mean a =
  let n = Array.length a in
  if n = 0 then 0. else sum a /. float_of_int n

let median a =
  let n = Array.length a in
  if n = 0 then 0.
  else begin
    let b = Array.copy a in
    Array.sort Float.compare b;
    if n mod 2 = 1 then b.(n / 2)
    else (b.((n / 2) - 1) +. b.(n / 2)) /. 2.
  end

let minimum a =
  if Array.length a = 0 then invalid_arg "Floatx.minimum: empty array";
  Array.fold_left Float.min a.(0) a

let maximum a =
  if Array.length a = 0 then invalid_arg "Floatx.maximum: empty array";
  Array.fold_left Float.max a.(0) a
