(** Hierarchical span tracer, and the one Chrome trace-event encoder.

    A tracer is a thread-safe list of typed events: complete spans
    ("X") and instants ("i"), each stamped with an absolute monotonic
    {!Clock} start (nanoseconds), a lane id ([tid]), a category and
    arguments. {!export} is the only code in the tree that turns events
    into Chrome trace-event JSON (the array form, loadable in Perfetto
    or [chrome://tracing]): thread-name metadata ("M") for every lane,
    then the events sorted by start, microsecond [ts]/[dur].

    Events are recorded two ways: {!with_span} and {!instant} read the
    clock themselves; {!record} takes an explicit start and duration,
    for callers that already measured the interval ([Stats.time_phase])
    or that rebuild spans from stored timestamps (the daemon's per-job
    lifecycle). {!events} and {!add} move typed events between tracers,
    relocating lanes on the way, so a merged timeline never round-trips
    through JSON.

    Lanes: each domain registers a small integer [tid] through
    {!set_tid} (the pool assigns worker [i] tid [i+1]; the main domain
    is tid 0); events recorded without an explicit [tid] take it.

    The tracer never reorders or drops events and is safe to use from
    any domain (one mutex around the event list; an open span lives on
    its caller's stack, so nesting needs no shared state). *)

type t

type event
(** One recorded span or instant. *)

val create : unit -> t
(** An empty tracer whose epoch is the current monotonic time. *)

val set_tid : int -> unit
(** Register the calling domain's thread id for subsequent events.
    Defaults to 0 (main). *)

val record :
  t ->
  ?cat:string ->
  ?args:(string * Json.t) list ->
  ?tid:int ->
  ?dur_ns:int64 ->
  start_ns:int64 ->
  string ->
  unit
(** Record an event at an explicit absolute monotonic start
    ({!Clock.now_ns} time): a complete span of [dur_ns] (clamped at 0),
    or an instant when [dur_ns] is omitted. [tid] defaults to the
    calling domain's. Reads no clock. *)

val with_span :
  t -> ?cat:string -> ?args:(string * Json.t) list -> string -> (unit -> 'a) -> 'a
(** Record a complete span around a thunk, from just before it starts to
    just after it returns; the span is recorded even if the thunk
    raises. *)

val instant :
  t -> ?cat:string -> ?args:(string * Json.t) list -> string -> unit
(** Record an "i" (instant) event at the current time. *)

val event_count : t -> int
(** Number of span/instant events recorded so far (metadata events not
    included). *)

val events : t -> event list
(** The recorded events, in recording order. *)

val event_name : event -> string
val event_tid : event -> int

val add : t -> lane:(event -> int) -> event list -> unit
(** Append events recorded by another tracer, keeping their absolute
    timestamps and moving each to lane [lane ev]. *)

val export :
  ?origin_ns:int64 ->
  ?pid:int ->
  ?lane_name:(int -> string) ->
  t ->
  Json.t list
(** The Chrome trace-event array: one thread-name metadata event per
    lane (tid 0 always, plus every tid an event sits on, ascending),
    then every event sorted by start. Timestamps are microseconds since
    [origin_ns] (default: the tracer's epoch; pass [0L] for absolute
    monotonic time, which is how the daemon puts several tracers on one
    timeline). [pid] defaults to the process id; [lane_name] names each
    lane (default ["main"] for tid 0, ["worker-N"] otherwise). *)

val to_json : t -> Json.t
(** [export] with every default, as one JSON array. *)

val write : t -> string -> unit
(** Write [to_json] to a file (pretty-printed). *)
