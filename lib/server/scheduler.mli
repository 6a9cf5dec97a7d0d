(** Multi-tenant job table and scheduling policy for the daemon.

    The scheduler owns every job the daemon has admitted: a mutex-guarded
    table mapping job ids to their spec, lifecycle state, timestamps,
    event log and (once finished) result. The daemon's main loop asks
    {!pick} for the next job to run; worker domains report back through
    {!finish} / {!fail} / {!finished_cancelled}. All mutation goes
    through this module's functions, so workers and the accept loop never
    race on a job record.

    Scheduling policy (deterministic given the table state):
    {ol
    {- strict priority — a higher [priority] job always runs first;}
    {- fair share within a priority — among equal-priority queued jobs,
       the tenant with the fewest currently running jobs wins, so one
       tenant flooding the queue cannot starve the others;}
    {- FIFO within a tenant — ties break on submission order.}}

    Lifecycle: [Queued -> Running -> Done | Failed | Cancelled], plus
    [Queued -> Cancelled] directly and [Queued/Done] at admission for
    cache hits. Cancellation of a running job is cooperative: {!cancel}
    sets a flag the worker polls at every round boundary (the engine's
    checkpoint hook), and the worker then reports
    {!finished_cancelled}. *)

module Json := Accals_telemetry.Json
module Protocol := Protocol

type state = Queued | Running | Done | Failed | Cancelled

val state_to_string : state -> string

type job
(** Opaque; read through {!view} / {!result} / {!events}. *)

type t

val create : unit -> t

val submit :
  t ->
  spec:Protocol.job_spec ->
  circuit:string ->
  digest:string ->
  key:string ->
  ?cached:Cache.entry ->
  ?lookup_s:float ->
  unit ->
  job
(** Admit a job. With [cached] it is born [Done] with that result and
    marked as a cache hit. [circuit] is the display name. [lookup_s] is
    the cache-lookup cost the daemon paid at admission, drawn as the
    "cache.lookup" span in the merged trace. A job without a
    [spec.trace_id] gets one minted here, so every job is traceable. *)

val find : t -> string -> job option
val all : t -> job list
(** Submission order. *)

val id : job -> string
(** ["j-<seq>-<64 random bits in hex>"]: the readable sequence number
    plus an unguessable nonce, because [result]/[cancel] are keyed by
    nothing but the id. *)

val spec : job -> Protocol.job_spec
val key : job -> string
val digest : job -> string

val trace_id : job -> string
(** The job's trace-context id: the client's, or minted at admission.
    Always a valid {!Accals_telemetry.Trace_context} id. *)

val state : t -> job -> state

val active_by_key : t -> string -> budget:float option -> job option
(** The coalescing/in-memory-cache lookup: a [Queued]/[Running] job with
    this cache key and the same [budget], or a successfully (converged,
    non-degraded) [Done] one regardless of budget. *)

val pick : ?tenant_max_running:int -> t -> job option
(** Select the next queued job under the scheduling policy, mark it
    [Running], stamp [started_at], and return it. [None] when nothing is
    queued. With [tenant_max_running > 0], queued jobs of a tenant that
    already has that many jobs running are passed over (they wait, they
    are not shed) and the next tenant in policy order runs instead. *)

val cancel_requested : job -> bool
(** Polled by workers (atomic flag; no lock needed on the hot path). *)

val cancel :
  t -> job -> [ `Cancelled_queued | `Cancel_requested | `Already_finished ]
(** Cancel a queued job immediately, or request cooperative cancellation
    of a running one. *)

val note_run_begin : t -> job -> unit
(** The worker domain is about to enter the engine: closes the
    "dispatch" span (pick -> run) in the merged trace and logs a
    [run_begin] event. Idempotent; no-op once terminal. *)

val note_delivered : t -> job -> unit
(** A client fetched the job's result for the first time: closes the
    "result.delivery" span. Idempotent; no-op until terminal. *)

val attach_trace : t -> job -> Accals_telemetry.Tracer.event list -> unit
(** Attach the events of the job's engine tracer, as recorded (lanes
    from 0, absolute monotonic time). {!trace} moves them to lanes
    1..n. *)

val finish : t -> job -> Cache.entry -> degraded:bool -> unit
val fail : t -> job -> string -> unit
val finished_cancelled : t -> job -> unit
(** A worker observed the cancel flag and unwound.

    All three terminal transitions are idempotent no-ops on a job that
    is already terminal: the deadline watchdog may {!expire} an
    abandoned job while its worker domain is still unwinding, and the
    worker's late report must not overwrite the verdict. *)

val deadline_failure : string
(** The failure string ({!view}'s [v_failure]) of a deadline-expired
    job: ["deadline_exceeded"]. *)

val resource_failure : string
(** The failure string of a job the engine checkpointed and shed under a
    resource budget: ["resource_exhausted"]. Like {!deadline_failure}, it
    is the environment's verdict, not the job's fault — it never counts
    toward quarantine. *)

val expire : t -> job -> string option
(** Fail a queued or running job as {!deadline_failure}, setting its
    cooperative cancel flag so an abandoned worker unwinds at the next
    round boundary. Returns the phase it was in (["queued"] /
    ["running"]), or [None] if the job was already terminal. *)

val deadline_mono : job -> float option
(** The absolute monotonic deadline ([Clock.now]-based), if any. *)

val expired : t -> now:float -> job list
(** Queued or running jobs whose deadline is at or past [now], in
    submission order — the watchdog sweep's work list. *)

val totals : t -> int * int
(** [(queued, running)] across all tenants. *)

val tenant_load : t -> string -> int * int
(** [(queued, running)] for one tenant — the admission-control input
    for per-tenant quotas. *)

val record_event : t -> job -> string -> (string * Json.t) list -> unit
(** Append a timestamped event to the job's JSONL event log. *)

type view = {
  v_id : string;
  v_state : state;
  v_circuit : string;
  v_metric : string;
  v_bound : float;
  v_tenant : string;
  v_priority : int;
  v_cached : bool;
  v_degraded : bool;
  v_queue_position : int option;  (** 0-based among queued jobs, policy order *)
  v_submitted_at : float;  (** wall clock, Unix epoch seconds *)
  v_wait_s : float option;  (** submit -> start *)
  v_run_s : float option;  (** start -> finish *)
  v_failure : string option;
}

val view : t -> job -> view
val result : t -> job -> Cache.entry option
val events : t -> job -> Json.t list
(** Chronological. *)

val trace : ?engine:bool -> t -> job -> Accals_telemetry.Tracer.t
(** The job's merged trace: lifecycle spans rebuilt from its stamps on
    lane 0 — [client.submit] (when the client sent a plausible
    same-machine [client_ts]), [cache.lookup], [queue.wait],
    [dispatch], [run], a terminal-state instant and [result.delivery],
    category ["job"], each tagged with the job's [trace_id]; spans
    still open end now — followed by the engine events attached via
    {!attach_trace} on lanes 1..n, unless [engine] is [false]. *)

val trace_events : t -> job -> Json.t list
(** {!trace} as Chrome trace-event JSON: absolute monotonic
    microseconds, pid 1, lanes named ["lifecycle"], ["engine"],
    ["engine-worker-N"]. Loadable in Perfetto as one timeline. *)

val counts : t -> (state * int) list
(** Jobs per state, for gauges. *)

val queued_specs : t -> Protocol.job_spec list
(** Specs of jobs that have not finished (queued or still running), in
    submission order — what a shutting-down daemon checkpoints so a
    restart can re-admit them. *)
