(* Differential property test for round evaluation: on random circuits
   driven through random LAC sequences, [Round_eval] on both settings (a
   persistent database, or a fresh one every round) must agree with the
   copy-and-resimulate oracle ([Oracle]) on every observable — applied /
   skipped partitions, error floats, probed areas and the committed
   network after every commit — and its database must pass the shadow
   audit at every round boundary. *)

open Accals_network
module Round_ctx = Accals_lac.Round_ctx
module Candidate_gen = Accals_lac.Candidate_gen
module Estimator = Accals_esterr.Estimator
module Evaluate = Accals_esterr.Evaluate
module Prng = Accals_bitvec.Prng
module Metric = Accals_metrics.Metric
module Shadow = Accals_audit.Shadow
module Round_eval = Accals.Round_eval

let fail = QCheck2.Test.fail_reportf

(* Structural equality that treats every float bit-for-bit ([compare]
   orders nan like any other value, where [=] would not). *)
let same a b = compare a b = 0

let differential ~incremental (seed, gates) =
  let net =
    Accals_circuits.Random_logic.make ~name:"diff" ~inputs:8 ~outputs:5 ~gates
      ~seed
  in
  let patterns = Test_sigdb.patterns_for net in
  let golden = Evaluate.output_signatures net patterns in
  let metric = Metric.Error_rate in
  let current = ref (Network.copy net) in
  let reference = ref (Network.copy net) in
  let ev = Round_eval.create ~incremental ~current ~patterns ~golden ~metric in
  let oracle = Oracle.create ~current:reference ~patterns ~golden ~metric in
  let rng = Prng.create (1000 + seed) in
  let same_net what =
    if not (same (Test_sigdb.net_fingerprint !current)
              (Test_sigdb.net_fingerprint !reference))
    then fail "round_eval and oracle networks differ %s" what
  in
  let round = ref 0 in
  let finished = ref false in
  while (not !finished) && !round < 4 do
    incr round;
    let ctx, est = Round_eval.begin_round ev in
    let candidates = Candidate_gen.generate ctx Candidate_gen.default_config in
    let candidates_ref =
      Candidate_gen.generate (Round_ctx.create !reference patterns)
        Candidate_gen.default_config
    in
    if not (same candidates candidates_ref) then
      fail "round %d: candidates differ from a from-scratch context" !round;
    let scored = Estimator.score est ~shortlist:40 candidates in
    if scored = [] then finished := true
    else begin
      for _ = 1 to 3 do
        let subset = Test_sigdb.random_subset rng 8 scored in
        if not (same (Round_eval.eval_set ev subset) (Oracle.eval_set oracle subset))
        then fail "round %d: eval_set disagrees" !round;
        if not (same (Round_eval.probe ev subset) (Oracle.probe oracle subset))
        then fail "round %d: probe disagrees" !round;
        same_net (Printf.sprintf "after evaluations in round %d" !round)
      done;
      let subset = Test_sigdb.random_subset rng 6 scored in
      let single = Round_eval.eval_single ev subset in
      if not (same single (Oracle.eval_single oracle subset)) then
        fail "round %d: eval_single disagrees" !round;
      let committed =
        if Prng.bool rng then begin
          let ((applied, _, e) as r) = Round_eval.eval_set ev subset in
          if not (same r (Oracle.eval_set oracle subset)) then
            fail "round %d: eval_set disagrees" !round;
          if applied = [] then None
          else begin
            Round_eval.commit_set ev applied;
            Oracle.commit_set oracle applied;
            Some e
          end
        end
        else
          Option.map
            (fun (lac, e) ->
              Round_eval.commit_single ev lac;
              Oracle.commit_single oracle lac;
              e)
            single
      in
      match committed with
      | None -> finished := true
      | Some e ->
        same_net (Printf.sprintf "after the commit of round %d" !round);
        if Round_eval.audit ev ~recorded_error:e <> Shadow.Clean then
          fail "round %d: shadow audit diverged after the commit" !round
    end
  done;
  true

let gen = QCheck2.Gen.(pair (int_range 0 10_000) (int_range 30 150))

let suite =
  [
    ( "round eval oracle",
      [
        Test_util.qcheck_case ~count:25 "persistent database = oracle" gen
          (differential ~incremental:true);
        Test_util.qcheck_case ~count:25 "per-round database = oracle" gen
          (differential ~incremental:false);
      ] );
  ]
