(** Schedule export and import for external tooling.

    Two formats:
    - CSV, one row per task placement (plottable as a Gantt chart with
      any spreadsheet or matplotlib);
    - a compact JSON document embedding applications, placements,
      makespans and per-task predecessor lists (hand-rolled
      encoder/decoder, no dependency).

    Both formats parse back with {!of_csv} / {!of_json}, so exported
    traces can be linted offline by [mcs_check]
    ({!Mcs_check.Trace_check} runs the invariant rules over a parsed
    {!doc}). CSV is lossy by design — no DAG edges, 9-significant-digit
    times — while JSON round-trips exactly. *)

val to_csv : ?release:float array -> Schedule.t list -> string
(** Header:
    [app,app_name,node,virtual,cluster,procs,nb_procs,start,finish].
    The [procs] cell joins global processor ids with ['+'].

    [release] gives per-application submission times (online / staggered
    runs). When present and not all zero, a [release] column is appended
    so the exported Gantt data is complete; when absent or all-zero the
    historical column set is kept unchanged.
    @raise Invalid_argument on a [release] of the wrong length. *)

val to_json :
  ?release:float array ->
  ?betas:float array ->
  ?alloc:int array array ->
  Schedule.t list ->
  string
(** One JSON object with an [applications] array. Numbers are printed
    with enough digits to round-trip. Each task object carries its
    [preds] (predecessor node, data volume in bytes) so a trace is
    structurally self-contained and [mcs_check] can verify precedence
    without the generating program. [release] behaves as in {!to_csv}:
    when present and not all zero, each application object gains a
    [release] field; otherwise the historical shape is kept.

    The remaining optional arguments attach checker metadata (all
    indexed per application, in list order):
    - [betas] — the resource constraint β each application was
      allocated under (a [beta] field);
    - [alloc] — the reference allocation, processors per DAG node (an
      [alloc] array).
    @raise Invalid_argument on a metadata array of the wrong length. *)

(** {2 Parsed traces} *)

type pred = {
  pred_node : int;
  bytes : float;
}

type row = {
  node : int;
  virt : bool;           (** the [virtual] column/field *)
  cluster : int;
  procs : int array;
  start : float;
  finish : float;
  preds : pred array;    (** empty for CSV rows *)
}

type app = {
  app : int;             (** CSV [app] column / JSON [id] *)
  name : string;
  release : float;       (** 0 when the export carried no release *)
  makespan : float option;  (** JSON only *)
  beta : float option;
  alloc : int array option;
  rows : row array;      (** in export order *)
  pinned : row array;    (** empty unless the export carried metadata *)
}

type doc = app array

val of_csv : string -> (doc, string) result
(** Parse a {!to_csv} export. Column order is recovered from the
    header, so the optional [release] column and future additions are
    handled; unknown columns are ignored. Rows are grouped by the [app]
    column, preserving row order. *)

val of_json : string -> (doc, string) result
(** Parse a {!to_json} export, including any checker metadata. Traces
    written before the [preds] field existed parse with empty [preds]. *)
