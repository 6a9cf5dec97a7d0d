(** Monotonic deadlines for graceful degradation.

    A watchdog is started with an optional time budget in seconds; [None]
    never expires. Time is read from {!Accals_telemetry.Clock.now}, so a
    wall-clock step (NTP, [date]) cannot expire a deadline early. Callers
    poll {!expired} at safe points (round boundaries, between phases) —
    there is no asynchronous interruption, so a deadline can only change
    *which* deterministic path runs, never leave shared state
    half-mutated. *)

type t

val start : float option -> t
(** [start (Some budget)] expires [budget] seconds from now;
    [start None] never expires. *)

val unlimited : t
(** A watchdog that never expires. *)

val expired : t -> bool

val elapsed : t -> float
(** Seconds since [start]. *)

val remaining : t -> float option
(** Seconds until expiry ([Some 0.] once expired); [None] when unlimited. *)
