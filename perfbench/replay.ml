(* The traced run's replay: one engine round on a given circuit, driven
   through the layers' public functions in the engine's order, each call
   wrapped in a span by the caller-side recorder. Nothing inside [lib/] is
   instrumented.

   The round starts from a fresh [Round_eval], so its first
   [begin_round] is a full [Sigdb.create] + [Round_ctx.of_sigdb] +
   [Estimator.create] (span "sigdb.create") even for the mid-run round,
   where the engine itself would have refreshed the database
   incrementally. The negative-set revert (improvement 2) is not
   replayed: the round commits the set it chose. *)

open Accals_network
open Accals_lac
module Metric = Accals_metrics.Metric
module Estimator = Accals_esterr.Estimator
module Mis = Accals_mis.Mis
module Graph = Accals_mis.Graph
module Prng = Accals_bitvec.Prng
module Blif = Accals_io.Blif
module Pool = Accals_runtime.Pool
module Config = Accals.Config
module Round_eval = Accals.Round_eval
module Top_set = Accals.Top_set
module Conflict_graph = Accals.Conflict_graph
module Influence = Accals.Influence
module Independent_select = Accals.Independent_select

let kind_name (l : Lac.t) =
  match l.Lac.kind with
  | Lac.Const0 | Lac.Const1 -> "const"
  | Lac.Wire _ -> "wire"
  | Lac.Inv_wire _ -> "inv_wire"
  | Lac.Gate2 _ -> "gate2"
  | Lac.Gate3 _ -> "gate3"
  | Lac.Sop _ -> "sop"

let kinds = [ "const"; "wire"; "inv_wire"; "gate2"; "gate3"; "sop" ]

let count_kinds lacs =
  List.map
    (fun k ->
      ( "kind." ^ k,
        float_of_int (List.length (List.filter (fun l -> kind_name l = k) lacs))
      ))
    kinds

let live_targets (ctx : Round_ctx.t) =
  Array.fold_left
    (fun acc id -> if Network.is_input ctx.Round_ctx.net id then acc else acc + 1)
    0 ctx.Round_ctx.order

let fi = float_of_int

(* Replay one round of Algorithm 1 on [circuit]; [golden] are the original
   circuit's output signatures on [patterns]. Returns the LACs committed
   and the candidates generated. *)
let round spans ?pool ~(config : Config.t) ~metric ~bound ~patterns ~golden
    circuit =
  let with_span ?counts name f = Spans.with_span ?counts spans name f in
  let net = Network.copy circuit in
  with_span "network.sim"
    ~counts:(fun nodes -> [ ("node_patterns", fi (nodes * patterns.Sim.count)) ])
    (fun () ->
      let live = Structure.live_set net in
      let order = Structure.topo_order ~live net in
      ignore (Sim.run ~live net patterns ~order);
      Array.length order)
  |> ignore;
  let current = ref net in
  (* [Round_eval] commits into [current]; the replayed circuit is a copy. *)
  let ev =
    Round_eval.create ~incremental:config.Config.incremental ~current ~patterns
      ~golden ~metric
  in
  let ctx, est = with_span "sigdb.create" (fun () -> Round_eval.begin_round ev) in
  let e = Estimator.base_error est in
  (* Both generations start from a collected heap, so their difference
     (lac.sop_s) is not skewed by the other's leftover garbage. *)
  Gc.full_major ();
  let candidates =
    with_span "lac.generate"
      ~counts:(fun lacs ->
        ("candidates", fi (List.length lacs))
        :: ("targets", fi (live_targets ctx))
        :: count_kinds lacs)
      (fun () -> Candidate_gen.generate ?pool ctx config.Config.candidate)
  in
  Gc.full_major ();
  with_span "lac.generate_nosop"
    ~counts:(fun lacs -> [ ("candidates", fi (List.length lacs)) ])
    (fun () ->
      Candidate_gen.generate ?pool ctx
        { config.Config.candidate with Candidate_gen.sops_per_target = 0 })
  |> ignore;
  let single_mode =
    config.Config.use_improvement_1 && e > config.Config.l_e *. bound
  in
  let evals0 = Estimator.evaluations est in
  let hits0, misses0 = Estimator.cache_stats est in
  let scored =
    with_span "esterr.score"
      ~counts:(fun _ ->
        let hits, misses = Estimator.cache_stats est in
        [
          ("evaluations", fi (Estimator.evaluations est - evals0));
          ("cone_hits", fi (hits - hits0));
          ("cone_lookups", fi (hits - hits0 + misses - misses0));
        ])
      (fun () ->
        Estimator.score ~mode:Estimator.Exact ?pool est
          ~shortlist:
            (if single_mode then min 64 config.Config.shortlist
             else config.Config.shortlist)
          candidates)
  in
  let sigdb_counts _ =
    let nodes, converged, recycled = Round_eval.take_counters ev in
    [
      ("resim_nodes", fi nodes);
      ("resim_converged", fi converged);
      ("resim_recycled", fi recycled);
    ]
  in
  ignore (sigdb_counts ());
  let applied =
    if scored = [] then 0
    else if single_mode then
      match
        with_span "sigdb.evaluate" ~counts:sigdb_counts (fun () ->
            Round_eval.eval_single ev scored)
      with
      | None -> 0
      | Some (lac, _) ->
        with_span "sigdb.commit" ~counts:sigdb_counts (fun () ->
            Round_eval.commit_single ev lac);
        1
    else begin
      let l_indp, l_rand =
        with_span "core.select" (fun () ->
            let l_top =
              with_span "core.top_set" (fun () ->
                  Top_set.obtain ~r_ref:config.Config.r_ref ~e ~e_b:bound scored)
            in
            let l_sol, _ =
              with_span "core.conflict" (fun () ->
                  Conflict_graph.find_and_solve l_top)
            in
            let targets = Array.of_list (List.map (fun l -> l.Lac.target) l_sol) in
            let graph =
              with_span "core.influence" (fun () ->
                  Influence.build_graph ?pool ctx ~targets ~t_b:config.Config.t_b)
            in
            let chosen =
              with_span "mis.solve"
                ~counts:(fun _ ->
                  [
                    ("vertices", fi (Graph.vertex_count graph));
                    ("edges", fi (Graph.edge_count graph));
                  ])
                (fun () -> Mis.solve ~seed:config.Config.seed graph)
            in
            let keep = Array.make (Array.length targets) false in
            List.iter (fun i -> keep.(i) <- true) chosen;
            let l_indp =
              List.filteri (fun i _ -> keep.(i)) l_sol
              |> List.sort (fun a b -> compare a.Lac.delta_error b.Lac.delta_error)
              |> Independent_select.budget_prefix ~r_sel:config.Config.r_sel
                   ~lambda:config.Config.lambda ~e ~e_b:bound
            in
            let l_rand =
              Independent_select.select_random config
                (Prng.create (config.Config.seed + 77))
                ~l_sol ~e ~e_b:bound
            in
            (l_indp, l_rand))
      in
      let (a1, _, e1), (a2, _, e2) =
        with_span "sigdb.evaluate" ~counts:sigdb_counts (fun () ->
            let r1 = Round_eval.eval_set ev l_indp in
            let r2 =
              if l_rand = [] then ([], [], infinity)
              else Round_eval.eval_set ev l_rand
            in
            (r1, r2))
      in
      let applied =
        if a2 = [] || (a1 <> [] && (e1 < e2 || (e1 = e2 && List.length a1 >= List.length a2)))
        then a1
        else a2
      in
      with_span "sigdb.commit" ~counts:sigdb_counts (fun () ->
          Round_eval.commit_set ev applied);
      List.length applied
    end
  in
  (applied, List.length candidates)

(* Write and re-read the circuit as BLIF. *)
let io spans circuit =
  let text =
    Spans.with_span spans "io.blif_write"
      ~counts:(fun s -> [ ("bytes", fi (String.length s)) ])
      (fun () -> Blif.to_string circuit)
  in
  let live = Array.length (Structure.topo_order ~live_only:true circuit) in
  Spans.with_span spans "io.blif_parse"
    ~counts:(fun parsed ->
      [
        ("bytes", fi (String.length text));
        ("nodes_in", fi live);
        ("nodes_out", fi (Array.length (Structure.topo_order ~live_only:true parsed)));
      ])
    (fun () -> Blif.parse_string text)
  |> ignore
