(** The four multi-cluster Grid'5000 subsets of Table 1.

    The Lille and Rennes clusters share a single switch per site, while
    Nancy and Sophia attach each cluster to its own switch, giving the
    different contention conditions discussed in Section 2 of the
    paper. *)

val lille : unit -> Platform.t
(** Chuque (53 × 3.647), Chti (20 × 4.311), Chicon (26 × 4.384) — 99
    processors, one switch, heterogeneity 20.2%. *)

val nancy : unit -> Platform.t
(** Grillon (47 × 3.379), Grelon (120 × 3.185) — 167 processors, one
    switch per cluster, heterogeneity 6.1%. *)

val rennes : unit -> Platform.t
(** Parasol (64 × 3.573), Paravent (99 × 3.364), Paraquad (66 × 4.603) —
    229 processors, one switch, heterogeneity 36.8%. *)

val sophia : unit -> Platform.t
(** Azur (74 × 3.258), Helios (56 × 3.675), Sol (50 × 4.389) — 180
    processors, one switch per cluster, heterogeneity 34.7%. *)

val all : unit -> Platform.t list
(** The four sites in the paper's order: Lille, Nancy, Rennes, Sophia. *)

val grid : unit -> Platform.t
(** The four sites federated into one platform: 11 clusters, 675
    processors, one switch per site. Not a paper subset — the scale
    target of the sharded serving engine ({!Mcs_serve}), whose cluster
    set partitions into four or more shards. *)

val names : string list
(** The names {!by_name} accepts: the four sites, then ["grid"]. *)

val by_name : string -> (Platform.t, string) result
(** Case-insensitive lookup among {!names}. The error is the CLIs'
    message: ["unknown site: mars (lille|nancy|rennes|sophia|grid)"]. *)
