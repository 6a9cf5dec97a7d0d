(** The degradation ladder: an explicit, reported state machine over the
    engine's evaluation modes.

    The engine starts at {!Incremental} (or {!Rebuild} under
    [--no-incremental]) and only ever moves {e down} the ladder:
    [Incremental -> Rebuild -> Single_lac]. All levels evaluate through the
    same journaled signature database; {!Incremental} keeps it across
    rounds, {!Rebuild} attaches a fresh one every round (so a descent
    abandons a database the audit caught diverging), and {!Single_lac}
    additionally commits one LAC per round. Each permanent descent carries
    a {!reason} and the round it happened in; transient events (a round
    watchdog demoting one round to single-LAC, a run deadline stopping the
    run) are recorded once per reason without changing the level. The whole
    ladder is part of the engine snapshot, so a resumed run reports the
    same history as an uninterrupted one. *)

type level = Incremental | Rebuild | Single_lac

type reason =
  | Audit_divergence  (** a shadow audit caught the fast path diverging *)
  | Watchdog_run  (** [--run-deadline] expired; run stopped degraded *)
  | Watchdog_round  (** [--round-deadline] demoted a round to single-LAC *)
  | Certification_rollback
      (** independent measurement rejected a result circuit *)
  | Manual  (** operator choice, e.g. [--no-incremental] *)
  | Resource_pressure
      (** the [--max-memory-mb] governor demanded a cheaper level or a
          checkpoint-and-shed stop *)

type event = { round : int; level : level; reason : reason; transient : bool }

type t

val create : initial:level -> t
val copy : t -> t
(** Snapshot-friendly deep copy (the event list is immutable and shared). *)

val initial : t -> level
(** The level the run started at (survives checkpointing). *)

val level : t -> level
val events : t -> event list
(** Chronological. *)

val descend : t -> round:int -> level:level -> reason:reason -> unit
(** Move permanently down to [level]. No-op unless [level] is strictly
    below the current one — the ladder never climbs back up. *)

val note : t -> round:int -> reason:reason -> bool
(** Record a transient event at the current level, once per [reason]:
    [true] when recorded, [false] when that reason was already noted. *)

val rank : level -> int
(** [Incremental] = 2, [Rebuild] = 1, [Single_lac] = 0. *)

val level_to_string : level -> string
val reason_to_string : reason -> string

val summary : t -> string
(** Human-readable one-liner, e.g.
    ["incremental -> rebuild@4 (audit_divergence)"]. *)
