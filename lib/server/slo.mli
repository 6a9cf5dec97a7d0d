(** Per-tenant SLO accounting for the daemon.

    The server reports every finished job here with its phase latencies
    (queue-wait, run, end-to-end) and outcome; admission-control rejects
    are reported as sheds. Per tenant, the accounting is:

    - fixed-bucket latency histograms per phase (seconds), from which
      the [slo] protocol request serves interpolated p50/p90/p99;
    - an outcome breakdown — [good] (succeeded within the target),
      [violated] (succeeded but slow), and a count per failure kind
      ([deadline_exceeded], [resource_exhausted], [shed], ...);
    - a rolling one-hour ring of one-minute good/bad counts, from which
      the error-budget {e burn rate} is derived: the observed bad
      fraction divided by the allowed bad fraction [1 - objective].
      1.0 means the tenant is burning exactly its error budget; 0 is
      clean; anything well above 1 is an incident.

    A job is {e good} iff it succeeded and its end-to-end latency is at
    most [target_ms]. Everything else — slow successes, failures,
    sheds — is {e bad} and burns budget.

    Storage: the histograms and outcome counts are instruments of the
    registry handed to {!create} ([accals_slo_latency_seconds{tenant,phase}],
    [accals_slo_jobs_total{tenant,outcome}]), so the server's one
    registry is the only store and {!to_json} is read back from it. The
    burn-rate ring is the module's only private state.

    Thread-safety: one internal mutex guards the ring; observation entry
    points are called from worker domains and the accept loop
    concurrently. The mutex is never held around a registry call, so the
    two lock domains never nest. *)

module Json := Accals_telemetry.Json
module Metrics := Accals_telemetry.Metrics

type spec = {
  target_ms : float;  (** good jobs finish end-to-end within this *)
  objective : float;  (** target good fraction, in (0, 1), e.g. 0.99 *)
}

val default_spec : spec
(** 30 s at 99%. *)

val window_minutes : int
(** Size of the rolling burn-rate window (60). *)

type t

val create : ?spec:spec -> Metrics.t -> t
(** Account into the given registry. Raises [Invalid_argument] on a
    non-positive [target_ms] or an [objective] outside (0, 1). *)

val spec : t -> spec

val observe_job :
  t ->
  tenant:string ->
  ?failure:string ->
  wait_s:float ->
  run_s:float ->
  total_s:float ->
  unit ->
  unit
(** Account one finished job. Without [failure] the job succeeded and
    is [good] or [violated] depending on [total_s] vs the target; with
    [failure] (a kind such as [Scheduler.deadline_failure]) it burns
    budget under that kind. Latencies are observed either way — a
    deadline-exceeded job's queue-wait is exactly the signal the
    histogram is for. *)

val observe_shed :
  t -> tenant:string -> kind:string -> unit
(** Account an admission-control reject (no latency to observe; burns
    budget under [kind], e.g. ["shed"] or ["quota"]). *)

val burn_rate : t -> tenant:string -> float
(** Current burn rate over the rolling window; 0 for an unknown tenant
    or one with no traffic in the window. *)

val to_json : t -> Json.t
(** The [slo] response body: spec, then per tenant (sorted by name) the
    outcome breakdown, burn rate, window counts and per-phase latency
    percentiles in milliseconds. *)

val refresh_burn_rates : t -> unit
(** Set each tenant's [accals_slo_burn_rate{tenant}] gauge in the
    registry from the current window; call before a snapshot. *)
