(* Correctness checks on one synthesis result. A result passes when

   - the run neither raised nor degraded,
   - the approximate circuit is structurally valid,
   - its error re-simulated from scratch on the engine's own patterns
     equals the reported error and stays within the bound, and
   - its error on an independent input stream (exhaustive up to
     [exhaustive_inputs] inputs) stays within the bound plus four
     standard errors of each sampled measurement. Selection on the
     engine's 2048 samples can push the true error a little past the
     bound; a wrong circuit overshoots by far more. *)

open Accals_network
module Metric = Accals_metrics.Metric
module Evaluate = Accals_esterr.Evaluate
module Engine = Accals.Engine

let exhaustive_inputs = 16
let independent_samples = 65536
let z = 4.0

type outcome = { ok : bool; independent_error : float; why : string }

let error_on ~metric ~golden ~approx patterns =
  Metric.measure metric
    ~golden:(Evaluate.output_signatures golden patterns)
    ~approx:(Evaluate.output_signatures approx patterns)

(* Standard deviation of one vector's contribution to the metric. *)
let vector_sd ~metric value =
  match metric with
  | Metric.Error_rate -> sqrt (value *. (1.0 -. value))
  | _ -> invalid_arg "Checks.vector_sd: only ER workloads"

let check ~seed ~(patterns : Sim.patterns) ~engine_exhaustive
    (report : Engine.report) =
  let golden = report.Engine.original and approx = report.Engine.approximate in
  let metric = report.Engine.metric and bound = report.Engine.error_bound in
  let fail why = { ok = false; independent_error = nan; why } in
  if report.Engine.degraded then fail "run degraded"
  else
    match Network.validate approx with
    | exception e -> fail ("invalid circuit: " ^ Printexc.to_string e)
    | () ->
      let resim = error_on ~metric ~golden ~approx patterns in
      if Float.abs (resim -. report.Engine.error) > 1e-12 then
        fail
          (Printf.sprintf "re-simulated error %.17g differs from reported %.17g"
             resim report.Engine.error)
      else if resim > bound then
        fail (Printf.sprintf "error %.17g exceeds bound %g" resim bound)
      else begin
        let n_in = Array.length (Network.inputs golden) in
        let exhaustive = n_in <= exhaustive_inputs in
        let check_patterns =
          if exhaustive then Sim.exhaustive n_in
          else
            Sim.random
              ~seed:(Accals_audit.Certify.independent_seed (seed + 7919))
              ~count:independent_samples n_in
        in
        let measured = error_on ~metric ~golden ~approx check_patterns in
        let sd = vector_sd ~metric measured in
        let se n = sd /. sqrt (float_of_int n) in
        let slack =
          (if engine_exhaustive then 0.0 else z *. se patterns.Sim.count)
          +. if exhaustive then 0.0 else z *. se check_patterns.Sim.count
        in
        if measured > bound +. slack +. 1e-12 then
          {
            ok = false;
            independent_error = measured;
            why =
              Printf.sprintf "independent error %.6g exceeds bound %g + %.3g"
                measured bound slack;
          }
        else { ok = true; independent_error = measured; why = "" }
      end
