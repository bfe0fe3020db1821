(** Zero-dependency structured tracing and counters for the scheduling
    pipelines.

    The module keeps one process-wide recorder holding {e spans} —
    nestable named intervals carrying wall-clock and allocation-word
    deltas — and {e counters} — named monotonic integers (plus
    high-water-mark gauges via {!record_max}). The recorder is disabled
    by default and every probe first reads a single flag, so
    instrumented hot paths pay approximately nothing when profiling is
    off: {!incr}, {!record_max}, {!enter} and {!leave} allocate nothing
    and {!with_span} reduces to a direct call of its argument.

    Counters are domain-safe: they are plain [Atomic.t] cells, so
    per-shard serving loops ({!Mcs_serve}) and {!Mcs_util.Parmap}
    workers running on their own domains all contribute updates without
    racing. Spans keep a frame {e stack} and remain owned by the domain
    that called {!enable}; span probes arriving from any other domain
    are silently dropped instead of corrupting it. Profile a serve run
    in its single-domain fallback mode (or set [MCS_DOMAINS=1] for a
    sweep) to capture a complete span trace.

    Canonical span and counter names are registered in {!Names};
    exporters (Chrome trace JSON, JSONL, self-time table) live in
    {!Export}. *)

type span = {
  name : string;    (** phase name, e.g. ["mapper.run"] *)
  depth : int;      (** nesting depth; 0 for a root span *)
  start_s : float;  (** seconds since {!enable} *)
  dur_s : float;    (** inclusive wall-clock duration, seconds *)
  self_s : float;   (** [dur_s] minus the duration of direct children *)
  alloc_w : float;
      (** minor-heap words allocated during the span, children included
          ([Gc.minor_words] delta: blocks allocated directly in the
          major heap, such as arrays above 256 words, are not counted) *)
}

type counter
(** A named counter, interned by {!counter}. Counters survive
    {!disable} and are zeroed by {!reset}/{!enable}. *)

val enabled : unit -> bool
(** Whether the recorder is currently capturing. *)

val enable : unit -> unit
(** Start capturing: clears previously recorded spans, zeroes every
    registered counter, restarts the epoch, and makes the calling
    domain the recorder's owner. *)

val disable : unit -> unit
(** Stop capturing. Completed spans and counter values remain readable
    (for export); open frames are discarded. *)

val reset : unit -> unit
(** Clear recorded spans and open frames and zero every registered
    counter without changing the enabled state. *)

val with_span : string -> (unit -> 'a) -> 'a
(** [with_span name f] runs [f ()] inside a span called [name]. The
    span is recorded when [f] returns {e and} when it raises (the
    exception is re-raised). When the recorder is disabled this is
    exactly [f ()]. *)

val enter : string -> unit
(** Open a span without a closure — the allocation-free variant of
    {!with_span} for hot paths. Must be balanced by {!leave}; no-op
    when disabled. Prefer {!with_span} wherever a closure is
    acceptable, as it is exception-safe. *)

val leave : unit -> unit
(** Close the innermost open span and record it. No-op when the
    recorder is disabled or no span is open. *)

val counter : string -> counter
(** Intern a counter by name: two calls with the same name return the
    same counter. Instrumented modules register their counters once at
    module initialisation, so {!counter_values} lists them (at zero)
    even before any event. *)

val incr : ?by:int -> counter -> unit
(** Atomically add [by] (default 1) to a counter from any domain; no-op
    when the recorder is disabled. *)

val record_max : counter -> int -> unit
(** Gauge update: raise the counter to [v] if [v] exceeds its current
    value (atomic compare-and-swap loop, safe from any domain) — used
    for high-water marks such as the ready-queue peak. *)

val value : counter -> int
(** Current value of a counter. *)

val counter_values : unit -> (string * int) list
(** Every registered counter with its value, sorted by name. *)

val spans : unit -> span list
(** Completed spans in completion order (a child precedes its parent).
    Open spans are not included. *)
