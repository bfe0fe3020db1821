(** The registry of the paper's tables and figures and of the repo's
    extra experiments: what [mcs_experiments_cli] and the bench harness
    both dispatch from. *)

type t = {
  id : string;  (** ["table1"], ["fig1"] … ["fig5"], ["x1"] … ["x9"] *)
  aliases : string list;  (** other names the experiments CLI accepts *)
  title : string;  (** the bench harness's section heading *)
  tables : ?runs:int -> unit -> Mcs_util.Table.t list;
      (** compute the artefact; [runs] scales the scenario combinations
          per point (default: [MCS_RUNS] or the paper's 25) *)
}

val all : t list
(** Every artefact, in the paper's order, then X1–X9. *)

val find : string -> t option
(** The artefact whose id or alias is exactly the name. *)
