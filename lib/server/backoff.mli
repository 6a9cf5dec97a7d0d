(** Shared jittered-exponential-backoff retry policy.

    One policy value describes a whole retry schedule: a base delay that
    doubles (by [factor]) per attempt, capped at [max_delay], with a
    deterministic jitter derived from the attempt counter — the same
    policy always produces the same schedule, so tests and the bench
    overload experiment are reproducible, while distinct attempt numbers
    still de-synchronize a thundering herd. [max_total] bounds the sum of
    all delays the policy will ever grant, so a client can never wait
    unboundedly on a dead or permanently overloaded daemon.

    Used by {!Client.connect_unix_retry} (racing a booting daemon) and
    {!Client.rpc_retry} (honoring the daemon's [retry_after_ms]
    overload hint). *)

type t = {
  base : float;  (** first delay, seconds *)
  factor : float;  (** per-attempt multiplier (>= 1) *)
  max_delay : float;  (** cap on a single delay, seconds *)
  max_total : float;  (** cap on the sum of all delays, seconds *)
  jitter : float;  (** fraction of the delay randomized, in [0, 1] *)
}

val default : t
(** [base = 0.05], [factor = 2.0], [max_delay = 2.0], [max_total = 30.0],
    [jitter = 0.25]. *)

val delay : t -> attempt:int -> float
(** The delay before retry number [attempt] (1-based), jittered
    deterministically from [attempt]: the unjittered exponential delay
    scaled by a factor in [1 - jitter, 1 + jitter]. Always
    non-negative; always [<= max_delay * (1 + jitter)]. *)

type schedule
(** Mutable cursor over a policy: tracks the attempt counter and the
    total slept so far, enforcing [max_total]. *)

val start : t -> schedule

val next : schedule -> float option
(** The next delay to sleep, or [None] when the schedule's [max_total]
    budget is exhausted. [~floor] lets the caller raise a single step to
    at least a server-provided hint (e.g. [retry_after_ms]); the floored
    amount still counts against [max_total]. *)

val next_with_floor : schedule -> floor:float -> float option

val total_slept : schedule -> float
val attempts : schedule -> int
