(* The copy-and-resimulate reference for round evaluation. Every evaluation
   copies the working circuit, applies the LACs to the copy and simulates
   the copy from scratch; every commit replaces the working circuit with
   such a copy, swept. This is the simplest correct way to evaluate a
   round, and the oracle [Accals.Round_eval] is checked against: same
   partitions, same error floats, same areas, same committed circuits. *)

open Accals_network
open Accals_lac
module Metric = Accals_metrics.Metric
module Evaluate = Accals_esterr.Evaluate

type t = {
  current : Network.t ref;
  patterns : Sim.patterns;
  golden : Accals_bitvec.Bitvec.t array;
  metric : Metric.kind;
}

let create ~current ~patterns ~golden ~metric =
  { current; patterns; golden; metric }

let sort_by_delta lacs =
  List.sort (fun a b -> compare a.Lac.delta_error b.Lac.delta_error) lacs

let error t net = Evaluate.actual_error net t.patterns ~golden:t.golden t.metric

let eval_set t lacs =
  let copy = Network.copy !(t.current) in
  let applied, skipped = Lac.apply_many copy (sort_by_delta lacs) in
  (applied, skipped, error t copy)

let rec eval_single t = function
  | [] -> None
  | lac :: rest -> (
    let copy = Network.copy !(t.current) in
    match Lac.apply copy lac with
    | () -> Some (lac, error t copy)
    | exception Network.Cycle _ -> eval_single t rest)

let probe t lacs =
  let copy = Network.copy !(t.current) in
  let applied, _skipped = Lac.apply_many copy (sort_by_delta lacs) in
  Cleanup.sweep copy;
  (applied, error t copy, Cost.area copy)

let commit_set t applied =
  let copy = Network.copy !(t.current) in
  let applied', _ = Lac.apply_many copy applied in
  assert (List.length applied' = List.length applied);
  Cleanup.sweep copy;
  t.current := copy

let commit_single t lac =
  let copy = Network.copy !(t.current) in
  Lac.apply copy lac;
  Cleanup.sweep copy;
  t.current := copy
