(** Round evaluation: candidate-set evaluation, single-LAC evaluation and
    commits through a {!Accals_sigdb.Sigdb} database attached to the
    working circuit. Every evaluation runs under the database's undo
    journal with cone-only overlay resimulation; every commit resimulates
    the changed cones in place.

    The one setting is how long the database lives: persistent across
    rounds (the incremental level), or detached and rebuilt by a full
    simulation at every {!begin_round} (the rebuild level,
    [--no-incremental], and where a ladder descent lands). Both settings
    produce bit-identical applied/skipped partitions, error floats and
    committed circuits; only the work counters differ. The tests keep a
    copy-and-resimulate reference as the oracle for both. *)

open Accals_network
open Accals_lac
module Metric := Accals_metrics.Metric
module Estimator := Accals_esterr.Estimator

type t

val create :
  incremental:bool ->
  current:Network.t ref ->
  patterns:Sim.patterns ->
  golden:Accals_bitvec.Bitvec.t array ->
  metric:Metric.kind ->
  t
(** Evaluation reads and updates the working circuit through [current].
    [incremental] keeps one database for the whole run; [false] attaches a
    fresh one every round. Either way the referenced network gets a change
    tracker attached (at {!begin_round}) and is mutated in place by
    commits; checkpoint a {!Accals_network.Network.copy} of it, never the
    network itself. *)

val watermark_ok : t -> bool
(** False when the database's frozen views are inconsistent with the
    working circuit (a missed change event); true when no database is
    attached. The engine treats false as a forced-audit trigger. *)

val degrade_to_rebuild : t -> unit
(** Permanently switch to the per-round setting: the current signature
    database is detached and abandoned at once, and every subsequent
    {!begin_round} attaches a fresh one. Callable at a round boundary only
    (not between {!begin_round} and its commit). *)

val audit : t -> recorded_error:float -> Accals_audit.Shadow.verdict
(** Shadow audit of the working circuit at a round boundary: re-derive
    liveness, order, signatures and error from scratch and compare with the
    database's views ({!Accals_audit.Shadow.compare}). A divergence is
    labelled ["incremental"] or ["rebuild"] after the current setting. *)

val corrupt_for_selftest : t -> int option
(** Corrupt one stored signature through
    {!Accals_sigdb.Sigdb.corrupt_signature}; [None] when the circuit has
    no live non-input node. Test hook. *)

val begin_round : t -> Round_ctx.t * Estimator.t
(** Analysis context and estimator for the round about to start.
    Incremental: the persistent pair, already refreshed by the previous
    round's commit (created on the first round). Rebuild: a fresh
    database, context and estimator over the current circuit. *)

val take_evaluations : t -> int
(** Estimator cone resimulations since the previous call (or since the
    estimator was created, if that was later). *)

val take_counters : t -> int * int * int
(** [(nodes, converged, recycled)] resimulation counters of the signature
    database since the previous call (or since it was attached): node
    evaluations — the attaching full simulation counts one per live
    non-input node — early-convergence stops and pool hits. Counters of a
    database replaced before they were taken are dropped, so take them
    after every commit. *)

type aux = {
  cache_hits : int;  (** estimator cone-cache hits *)
  cache_misses : int;
  journal_undos : int;  (** sigdb undo-journal reverts *)
  journal_entries : int;  (** journal entries undone, summed over reverts *)
}

val take_aux : t -> aux
(** Secondary work counters accumulated since the previous call — the
    engine pushes these into the telemetry registry each round. Pure
    observation: reading them never affects evaluation. *)

val aux_bytes : t -> int
(** Estimated bytes held by discardable derived state: the estimator's
    cone cache plus the signature database's idle buffer pool. Feeds the
    [--max-memory-mb] governor's footprint sample. *)

val relieve_memory : t -> int * int
(** Memory-pressure relief: drop the cone cache and the idle signature
    buffer pool, returning [(cones_dropped, buffers_dropped)]; on the
    per-round setting the database itself is detached too, since the next
    {!begin_round} replaces it anyway. All of it is derived data rebuilt on
    demand, so evaluation results are bit-identical with or without the
    relief — only time is lost. Round boundary only. *)

val eval_set : t -> Lac.t list -> Lac.t list * Lac.t list * float
(** Evaluate a LAC set without committing it: apply in ascending
    [delta_error] order, partition into (applied, skipped) under the
    acyclicity guard, and return the exact-on-samples error the working
    circuit would have (measured before any cleanup). The working circuit
    is unchanged on return. *)

val eval_single : t -> Lac.t list -> (Lac.t * float) option
(** First LAC of the list that applies without closing a cycle, with the
    exact-on-samples error of the resulting circuit; [None] if none
    applies. The working circuit is unchanged on return. *)

val probe : t -> Lac.t list -> Lac.t list * float * float
(** [(applied, error, area)] of the circuit obtained by applying the set
    and sweeping, without committing — the AMOSA baseline's state
    evaluation. Area is measured after the sweep. *)

val commit_set : t -> Lac.t list -> unit
(** Commit the [applied] list a prior {!eval_set} returned (in that exact
    order), then sweep. Re-application reproduces the evaluated circuit
    bit-for-bit, fresh node ids included. *)

val commit_single : t -> Lac.t -> unit
(** Commit one LAC a prior {!eval_single} returned, then sweep. *)
