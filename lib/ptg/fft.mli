(** Fast Fourier Transform PTG, in the classical form used by the PTG
    scheduling literature (Topcuoglu et al.): for a transform over
    [points = 2^k] sub-vectors,

    - a binary recursive-decomposition tree of [2·points − 1] tasks
      (the task at tree level [l] splits a vector of [d/2^l] elements;
      sort-like cost [a·d'·log2 d']),
    - followed by [k] butterfly stages of [points] tasks each
      ([d/points] elements, linear cost).

    Total: [2·points − 1 + points·k] tasks — 15, 39 and 95 tasks for 4,
    8 and 16 points. The paper quotes "15, 37 and 95"; 37 is
    inconsistent with any closed form matching 15 and 95 and is treated
    as a typo for 39 (see DESIGN.md). Every task of a level has the same
    cost, making these PTGs very regular. *)

val task_count : points:int -> int
(** [2·points − 1 + points·log2 points].
    @raise Invalid_argument unless [points] is a power of two ≥ 2. *)

val generate :
  ?id:int -> ?data:float -> points:int -> Mcs_prng.Prng.t -> Ptg.t
(** [generate ~points rng] draws the total vector size uniformly in
    [[Task.d_min, Task.d_max]] unless [data] is given. One Amdahl
    fraction is drawn per level (all tasks of a level share it, keeping
    per-level costs identical).
    @raise Invalid_argument unless [points] is a power of two ≥ 2. *)
