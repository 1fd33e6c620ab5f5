(** A process-wide metrics registry for the WOLVES hot paths.

    Counters, gauges and timers (log-scale histograms over the monotonic
    {!Clock}), plus lightweight nestable spans, all registered under stable
    dotted names ([soundness.subset_checks], [corrector.prune_probes], ...).

    Everything sits behind one enable flag: when disabled (the default),
    every recording operation is a single load-and-branch, so instrumented
    hot loops cost essentially nothing in production. Handle creation
    ({!counter} / {!gauge} / {!timer}) is always allowed — modules register
    their metrics at load time — only {e recording} is gated.

    The registry is global mutable state (like the clock it wraps); callers
    that need isolation, such as per-experiment benchmark sections, use
    {!reset} between measurements.

    {b Domain safety.} Every counter and timer is a set of atomic cells
    and gauges are atomic too, so any domain may record into any metric at
    any time — parallel pool jobs and server worker domains record
    directly, with no per-domain buffer to merge. Counter totals are exact
    under concurrency, and a snapshot taken while other domains record is
    internally consistent (a timer's [count] always equals its bucket
    total). Registration and snapshot/reset take an internal lock, so
    handles may be created from any domain. The span stack is
    domain-local. The tracer is not domain-safe: parallel jobs run under
    {!untraced}, which silences event emission on their domain while
    recording carries on.

    {b Unregistered cells.} {!unregistered_counter} and
    {!unregistered_timer} make cells outside the registry, for families an
    object owns, such as one server's request counters and latency
    histograms. They record regardless of the enable flag, never appear
    in {!snapshot}, and are not cleared by {!reset}. *)

type counter
type gauge
type timer

(* --- enable flag --- *)

val set_enabled : bool -> unit
val is_enabled : unit -> bool

val enabled : (unit -> 'a) -> 'a
(** Run a thunk with recording enabled, restoring the previous flag
    afterwards (also on exceptions). *)

(* --- tracing hook --- *)

type span_args = (string * string) list
(** Structured key/value annotations attached to trace events (task counts,
    composite names, tier names, retry attempts, ...). *)

type tracer = {
  on_begin : string -> (unit -> span_args) -> unit;
      (** a timed region ([time] or [with_span]) opened *)
  on_end : string -> unit;  (** the matching region closed *)
  on_instant : string -> (unit -> span_args) -> unit;
      (** a point event ([instant]) *)
}
(** Event-level observer. Installing one makes every already-instrumented
    region ({!time} / {!with_span} call site) emit begin/end events in
    addition to — and independently of — histogram recording: tracing works
    with metrics disabled and vice versa. The argument thunk is passed
    through unforced so a tracer that drops an event (e.g. the server's
    per-request sampling gate) never pays for its annotations; force it at
    most once, at the moment the event is actually kept.
    [Wolves_trace.Trace] provides the standard ring-buffer
    implementation. *)

val set_tracer : tracer option -> unit
(** Install (or remove, with [None]) the process-wide tracer. *)

val has_tracer : unit -> bool

val current_tracer : unit -> tracer option
(** The installed tracer, for callers that need to chain or save/restore
    around a temporary installation of their own. *)

val with_tracer : tracer -> (unit -> 'a) -> 'a
(** Run a thunk with the given tracer installed, restoring the previous one
    afterwards (also on exceptions). *)

val instant : string -> (unit -> span_args) -> unit
(** Emit a point event to the installed tracer, if any. The argument thunk
    is only forced when a tracer is installed, so call sites cost a single
    load-and-branch while tracing is off. No metric is recorded. *)

(* --- registration (idempotent by name) --- *)

val counter : string -> counter
(** Find or create the counter of that name.
    @raise Invalid_argument when the name is registered as another kind. *)

val gauge : string -> gauge

val timer : string -> timer

val unregistered_counter : string -> counter
(** A counter outside the registry that always records (see
    {e Unregistered cells} above). The name is only a label for its
    owner's exposition. *)

val unregistered_timer : string -> timer
(** A timer outside the registry that always records through {!observe}.
    ({!time} stays gated by the registry flag or an installed tracer.) *)

(* --- recording (no-ops while disabled) --- *)

val incr : counter -> unit

val add : counter -> int -> unit

val set : gauge -> float -> unit

val observe : timer -> float -> unit
(** Record one duration in seconds (clamped at [0.]). *)

val time : ?args:(unit -> span_args) -> timer -> (unit -> 'a) -> 'a
(** Time a thunk on the monotonic clock and {!observe} the duration (also
    on exceptions). When a tracer is installed the region additionally
    emits begin/end events named after the timer, annotated with [args]
    (forced per event; defaults to none). While metrics and tracing are
    both off this is exactly [f ()]. *)

(* --- spans --- *)

val with_span : ?args:(unit -> span_args) -> string -> (unit -> 'a) -> 'a
(** Time a named, nestable region. Nested spans record under their
    [/]-joined path: [with_span "correct" (fun () -> with_span "weak" f)]
    records into the timers [span:correct] and [span:correct/weak]. The
    span stack unwinds correctly on exceptions. When a tracer is installed
    the region also emits begin/end events (named by the leaf name, with
    [args]). While metrics and tracing are both off this is exactly
    [f ()]. *)

val span_stack : unit -> string list
(** The names of the currently open spans, innermost first (for tests). *)

val untraced : (unit -> 'a) -> 'a
(** Run a thunk with the tracer hooks silenced on the calling domain
    (restored afterwards, also on exceptions); recording is unaffected.
    Parallel jobs wrap their work in it, so trace output comes only from
    the coordinating domain and stays balanced at any domain count. *)

(* --- reading --- *)

val counter_value : counter -> int
val gauge_value : gauge -> float option
(** [None] until the gauge is first {!set}. *)

val bucket_bounds : float array
(** The fixed log-scale bucket upper bounds, in seconds, shared by every
    timer: powers of 2 from 4ns ([4ns * 2^i] for [i = 0 .. 38], about
    1100s at the top), the last entry [infinity]. An observation is rounded
    to whole nanoseconds and lands in the first bucket whose bound covers
    it, so quantile estimates are within 2x of the true value. *)

type timer_stats = {
  count : int;  (** number of observations *)
  sum : float;  (** total observed seconds (kept in whole nanoseconds) *)
  max : float;  (** largest observation, [0.] when empty *)
  buckets : (float * int) list;
      (** (upper bound in seconds, observations in that bucket), one pair
          per {!bucket_bounds} entry, the last bucket unbounded
          ([infinity]). [count] is their sum. *)
}

val timer_stats : timer -> timer_stats

type snapshot = {
  counters : (string * int) list;
  gauges : (string * float) list;
  timers : (string * timer_stats) list;
}
(** All registered metrics, each section sorted by name. Gauges that were
    never set are omitted. *)

val snapshot : unit -> snapshot

val cells_snapshot : counters:counter list -> timers:timer list -> snapshot
(** A snapshot of the given cells — typically unregistered ones — under
    their own names, in the order given, with no gauges. *)

val reset : unit -> unit
(** Zero every registered metric (registrations survive) and unwind the
    open-span stack, so spans opened after a mid-span [reset] record under
    clean paths. *)

(* --- output --- *)

val snapshot_to_json : snapshot -> string
(** Render a snapshot as a JSON object
    [{"bucket_bounds_s": [..], "counters": {..}, "gauges": {..},
    "timers": {..}}]. [bucket_bounds_s] lists the shared log-scale bucket
    upper bounds in seconds, the unbounded last bound as [null]. Timer
    histograms list only non-empty buckets keyed by the rendered bound
    (the unbounded bucket keyed ["inf"]). *)

val dump_json : unit -> string
(** [snapshot_to_json (snapshot ())]. *)
