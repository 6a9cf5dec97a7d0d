(* The synthesis workloads: seeded inputs handed straight to [Engine.run]
   as networks (never through BLIF, whose reader expands every cover into
   AND/OR/NOT nodes and would hand the engine a different, ~3.8x larger
   circuit — the io layer is measured on its own in the traced run). *)

open Accals_network
module Metric = Accals_metrics.Metric
module Engine = Accals.Engine
module Config = Accals.Config
module Pool = Accals_runtime.Pool
module Random_logic = Accals_circuits.Random_logic

type job = {
  label : string;
  net : Network.t;
  metric : Metric.kind;
  bound : float;
  config : Config.t;
  patterns : Sim.patterns;
  mid_rounds : int;
      (** round cap of the run whose result is the traced run's mid-run
          circuit: about half of a converged run *)
}

type spec = { jobs : int; make : int -> job list }

let job ?(max_rounds = Config.default.Config.max_rounds) ~mid_rounds ~seed ~jobs
    ~label ~metric ~bound net =
  let config =
    Config.for_network
      ~base:{ Config.default with Config.seed; jobs; max_rounds }
      net
  in
  let patterns =
    Sim.for_network ~seed ~count:config.Config.samples
      ~exhaustive_limit:config.Config.exhaustive_limit net
  in
  { label; net; metric; bound; config; patterns; mid_rounds }

(* synth10k scale, built the way [Bench_suite.load] builds its synthetic
   scale points (light cleanup, dense renumbering), but from the workload
   seed instead of the registry's fixed one. *)
let synth10k seed =
  let net =
    Random_logic.make ~name:"synth10k" ~inputs:192 ~outputs:96 ~gates:14_000
      ~seed:(9010 + seed)
  in
  Cleanup.sweep net;
  Cleanup.strash net;
  Cleanup.sweep net;
  let net = Cleanup.compact net in
  Network.set_name net (Printf.sprintf "synth10k-s%d" seed);
  net

(* Rounds one scale-10k pass runs before it stops; the fixed cap keeps a
   pass well inside one benchmark run. *)
let scale_rounds = 1

let scale ~jobs =
  {
    jobs;
    make =
      (fun seed ->
        [
          job ~max_rounds:scale_rounds ~mid_rounds:scale_rounds ~seed ~jobs
            ~label:"synth10k"
            ~metric:Metric.Error_rate ~bound:0.03 (synth10k seed);
        ]);
  }

let run ?pool j =
  Engine.run ~config:j.config ~patterns:j.patterns ?pool j.net ~metric:j.metric
    ~error_bound:j.bound

let engine_exhaustive j =
  Array.length (Network.inputs j.net) <= j.config.Config.exhaustive_limit

let check ~seed j report =
  Checks.check ~seed ~patterns:j.patterns ~engine_exhaustive:(engine_exhaustive j)
    report
