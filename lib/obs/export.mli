(** Exporters over the current {!Obs} recorder contents.

    Three formats, all derived from {!Obs.spans} and
    {!Obs.counter_values} at call time (typically after
    {!Obs.disable}):

    - {e chrome} — a Chrome trace-event JSON document loadable in
      [chrome://tracing] / Perfetto: one complete ["X"] event per span
      (microsecond timestamps, self time and allocation words in
      [args]) and one ["C"] event per non-zero counter;
    - {e jsonl} — one JSON object per line (spans, then counters), for
      streaming consumers;
    - {e table} — a human-readable self-time profile rendered with
      {!Mcs_util.Table}, phases sorted by aggregate self time, non-zero
      counters appended. *)

type format = Chrome | Jsonl | Table

val format_names : (string * format) list
(** [("chrome", Chrome); ("jsonl", Jsonl); ("table", Table)] — ready
    for [Cmdliner.Arg.enum]. *)

type row = {
  phase : string;   (** span name *)
  calls : int;      (** number of completed spans with this name *)
  total_s : float;  (** summed inclusive duration, seconds *)
  self_s : float;   (** summed self time, seconds *)
  alloc_w : float;  (** summed minor-heap allocation words (inclusive) *)
}

val profile_rows : unit -> row list
(** Spans aggregated by name, sorted by decreasing self time — the data
    behind the table exporter and [BENCH_pipeline.json]. *)

val chrome : unit -> string
(** The Chrome trace document, encoded (round-trips through
    {!Mcs_util.Jsonx.parse}). *)

val jsonl : unit -> string
(** The JSONL stream, one object per line, trailing newline included. *)

val render : format -> string
(** Render the chosen format to a string. *)

val write : format -> string -> unit
(** [write format path] renders to [path], or to stdout when [path] is
    ["-"]. *)
