(** Floating-point helpers shared across the scheduling and simulation
    code. All comparisons in schedule construction go through these to
    keep tolerance handling in one place. *)

val eps : float
(** Absolute tolerance used for schedule-time comparisons (1e-9 s). *)

val approx_eq : ?tol:float -> float -> float -> bool
(** [approx_eq a b] is [true] when [a] and [b] differ by at most [tol]
    (default {!eps}) in absolute value, or by [tol] relatively for large
    magnitudes. *)

val ( <=. ) : float -> float -> bool
(** [a <=. b] is tolerant [<=]: true when [a <= b +. eps]. *)

val ( >=. ) : float -> float -> bool
(** [a >=. b] is tolerant [>=]: true when [a >= b -. eps]. *)

val ( <. ) : float -> float -> bool
(** [a <. b] is strict [<] beyond tolerance: [a < b -. eps]. *)

val ( >. ) : float -> float -> bool
(** [a >. b] is strict [>] beyond tolerance: [a > b +. eps]. *)

val clamp : lo:float -> hi:float -> float -> float
(** [clamp ~lo ~hi x] restricts [x] to the closed interval [lo, hi]. *)

val sum : float array -> float
(** Kahan-compensated sum of an array. *)

val sum_list : float list -> float
(** Kahan-compensated sum of a list. *)

val mean : float array -> float
(** Arithmetic mean; 0 on the empty array. *)

val median : float array -> float
(** Median (average of the middle pair for even sizes); 0 on empty. *)

val minimum : float array -> float
(** Smallest element. @raise Invalid_argument on the empty array. *)

val maximum : float array -> float
(** Largest element. @raise Invalid_argument on the empty array. *)
