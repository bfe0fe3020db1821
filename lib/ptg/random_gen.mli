(** Random layered PTG generator — reimplementation of the four-parameter
    model of Suter's DAG generation program used by the paper
    (Section 2): width, regularity, density and jumps.

    - The mean number of tasks per precedence level is [n^width]
      (width 0.2 gives chain-like graphs, 0.8 fork-join-like ones).
    - Regularity [r] modulates per-level deviation: level populations are
      drawn uniformly in [[m·r, m·(2−r)]].
    - Density [p] controls inter-level connectivity: each task of level
      [l] independently receives an edge from each task of level [l−1]
      with probability [p]; a task with no parent drawn is given one
      uniformly (so only the added entry node is a source).
    - Jump [j > 1] adds edges skipping levels: each task at level
      [l ≥ j] receives, with probability [p/2], one edge from a random
      task at level [l−j]. [j = 1] adds nothing (no level is jumped). *)

type params = {
  tasks : int;                                  (** number of real tasks *)
  width : float;                                (** in (0, 1] *)
  regularity : float;                           (** in (0, 1] *)
  density : float;                              (** in (0, 1] *)
  jump : int;                                   (** 1, 2 or 4 in the paper *)
  class_ : Mcs_taskmodel.Task.complexity_class; (** task cost scenario *)
}

val default : params
(** 20 mixed tasks, width 0.5, regularity 0.5, density 0.5, jump 1. *)

val validate : params -> unit
(** @raise Invalid_argument when a parameter is out of range. *)

val generate : ?id:int -> ?name:string -> Mcs_prng.Prng.t -> params -> Ptg.t
(** Draw a PTG. Deterministic in the generator state. *)
