(** Shadow audits: re-derive a round's signatures from scratch and compare
    them against what the engine's signature database believes.

    The audit is a from-scratch derivation run out-of-band: a fresh liveness
    walk, a fresh topological order, a fresh bit-parallel simulation of the
    working circuit, and a fresh error measurement against the golden
    outputs. {!compare} then checks the signature store node-by-node and
    the recorded running error against the re-derived values. The result
    is either [Clean] or a [Divergence] carrying the diverging node ids
    and a CRC-32 fingerprint pair — everything an incident record needs. *)

open Accals_network

type divergence = {
  backend : string;  (** ["incremental"] or ["rebuild"] *)
  nodes : int list;  (** diverging node ids, ascending, at most 8 reported *)
  fp_reference : string;  (** fingerprint of the re-derived signatures *)
  fp_observed : string;  (** fingerprint of the audited store *)
  recorded_error : float;
  reference_error : float;
}

type verdict = Clean | Divergence of divergence

val fingerprint :
  live:bool array -> sigs:Accals_bitvec.Bitvec.t array -> int -> string
(** CRC-32 over (id, signature words) of every live node below the given
    bound, as eight hex digits. Equal signature sets give equal
    fingerprints. *)

val compare :
  net:Network.t ->
  patterns:Sim.patterns ->
  golden:Accals_bitvec.Bitvec.t array ->
  metric:Accals_metrics.Metric.kind ->
  recorded_error:float ->
  backend:string ->
  observed:bool array * Accals_bitvec.Bitvec.t array ->
  verdict
(** [observed] is the audited signature store's (live set, signatures)
    view; [backend] labels it in a {!Divergence} (["incremental"] for a
    persistent database, ["rebuild"] for a per-round one). *)
