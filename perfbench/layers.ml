(* Per-layer metrics of the traced run, computed from the span recorders
   of its replays (one recorder per replay; times are medians over the
   replays, counts come from the first one since they repeat). Layers
   a workload does not exercise report 0. *)

module Stats_rt = Accals_runtime.Stats
module Trace = Accals.Trace

type t = (string * string * float) list  (** name, unit, value *)

let mwords w = w /. 1e6

let engine_layers ~(replays : Spans.t list) ~(rounds : Trace.round list)
    ~(runtime : Stats_rt.snapshot) ~(gc : Probe.sample) ~applied : t =
  let med f = Stats.median (List.map f replays) in
  let first = List.hd replays in
  let self name = med (fun r -> Spans.self_s r name) in
  let wall name = med (fun r -> Spans.total r name (fun s -> s.Spans.probe.Probe.wall_s)) in
  let words name =
    Spans.total first name (fun s -> s.Spans.probe.Probe.alloc_words)
  in
  let count name key = Spans.count first name key in
  let generate_s = self "lac.generate" in
  let candidates = count "lac.generate" "candidates" in
  let sim_s = self "network.sim" in
  let resim = count "sigdb.evaluate" "resim_nodes" +. count "sigdb.commit" "resim_nodes" in
  let resim_of key = count "sigdb.evaluate" key +. count "sigdb.commit" key in
  let multi = List.filter (fun r -> r.Trace.mode = Trace.Multi) rounds in
  let sum f l = List.fold_left (fun acc r -> acc +. float_of_int (f r)) 0.0 l in
  [
    ("lac.generate_s", "s", generate_s);
    ("lac.generate_mwords", "Mwords", mwords (words "lac.generate"));
    ("lac.candidates", "count", candidates);
  ]
  @ List.map
      (fun k ->
        ("lac.candidates." ^ k, "count", count "lac.generate" ("kind." ^ k)))
      Replay.kinds
  @ [
      ( "lac.sop_s",
        "s",
        med (fun r -> Spans.self_s r "lac.generate" -. Spans.self_s r "lac.generate_nosop")
      );
      ( "lac.us_per_target",
        "us",
        Stats.ratio (generate_s *. 1e6) (count "lac.generate" "targets") );
      ("lac.applied_per_candidate", "ratio", Stats.ratio applied candidates);
      ("esterr.score_s", "s", self "esterr.score");
      ("esterr.score_mwords", "Mwords", mwords (words "esterr.score"));
      ("esterr.evaluations", "count", count "esterr.score" "evaluations");
      ( "esterr.cone_cache_hit_ratio",
        "ratio",
        Stats.ratio
          (count "esterr.score" "cone_hits")
          (count "esterr.score" "cone_lookups") );
      ("sigdb.evaluate_s", "s", self "sigdb.evaluate" +. self "sigdb.commit");
      ("sigdb.resim_nodes", "count", resim);
      ("sigdb.resim_converged_ratio", "ratio", Stats.ratio (resim_of "resim_converged") resim);
      ("sigdb.recycled_ratio", "ratio", Stats.ratio (resim_of "resim_recycled") resim);
      ("core.select_s", "s", wall "core.select");
      ("core.influence_s", "s", self "core.influence");
      ( "core.revert_ratio",
        "ratio",
        Stats.ratio
          (float_of_int (List.length (List.filter (fun r -> r.Trace.reverted) rounds)))
          (float_of_int (List.length rounds)) );
      ( "core.indp_ratio",
        "ratio",
        Stats.ratio (sum (fun r -> r.Trace.indp_count) multi)
          (sum (fun r -> r.Trace.sol_count) multi) );
      ("mis.solve_s", "s", self "mis.solve");
      ("mis.vertices", "count", count "mis.solve" "vertices");
      ("mis.edges", "count", count "mis.solve" "edges");
      ("network.sim_s", "s", sim_s);
      ( "network.sim_node_patterns_per_s",
        "1/s",
        Stats.ratio (count "network.sim" "node_patterns") sim_s );
    ]
  (* Allocation and minor collections of each layer's calls. *)
  @ List.concat_map
      (fun (metric, span) ->
        [
          (metric ^ "_mwords", "Mwords", mwords (words span));
          ( metric ^ "_minor_gcs",
            "count",
            Spans.total first span (fun s -> float_of_int s.Spans.probe.Probe.minor_gcs) );
        ])
      [
        ("sigdb.evaluate", "sigdb.evaluate");
        ("sigdb.commit", "sigdb.commit");
        ("core.select", "core.select");
        ("network.sim", "network.sim");
      ]
  @ [
      ("lac.generate_minor_gcs", "count",
        Spans.total first "lac.generate" (fun s -> float_of_int s.Spans.probe.Probe.minor_gcs));
      ("esterr.score_minor_gcs", "count",
        Spans.total first "esterr.score" (fun s -> float_of_int s.Spans.probe.Probe.minor_gcs));
      ("runtime.tasks", "count", float_of_int runtime.Stats_rt.tasks);
      ("runtime.batches", "count", float_of_int runtime.Stats_rt.batches);
      ("runtime.steals", "count", float_of_int runtime.Stats_rt.steals);
      ("runtime.idle_s", "s", runtime.Stats_rt.idle_seconds);
      ("runtime.minor_gcs", "count", float_of_int gc.Probe.minor_gcs);
      ("runtime.major_gcs", "count", float_of_int gc.Probe.major_gcs);
    ]

let io_layer (replays : Spans.t list) : t =
  let med f = Stats.median (List.map f replays) in
  let first = List.hd replays in
  let parse_s = med (fun r -> Spans.self_s r "io.blif_parse") in
  let count key = Spans.count first "io.blif_parse" key in
  [
    ("io.blif_parse_s", "s", parse_s);
    ("io.blif_parse_mb_per_s", "MB/s", Stats.ratio (count "bytes" /. 1e6) parse_s);
    ("io.blif_write_s", "s", med (fun r -> Spans.self_s r "io.blif_write"));
    ("io.parse_node_ratio", "ratio", Stats.ratio (count "nodes_out") (count "nodes_in"));
  ]

let server_names =
  [
    ("server.ping_rtt_ms", "ms");
    ("server.submit_rtt_ms", "ms");
    ("server.queue_wait_ms", "ms");
    ("server.run_ms", "ms");
    ("server.cache_hit_ratio", "ratio");
    ("server.coalesced", "count");
    ("server.shed", "count");
    ("server.hit_p50_ms", "ms");
    ("server.hit_p90_ms", "ms");
    ("server.hit_samples", "count");
    ("server.cold_p50_ms", "ms");
    ("server.cold_samples", "count");
    ("server.poll_interval_ms", "ms");
  ]

let no_server : t = List.map (fun (n, u) -> (n, u, 0.0)) server_names

(* Fraction of the traced replay's wall time spent inside the recorder:
   the measured cost of one empty span times the spans recorded. *)
let overhead_frac (replays : Spans.t list) ~replay_wall_s =
  let probe = Spans.create ~run_id:"calibration" in
  let n = 2000 in
  let (), cost = Probe.measure (fun () ->
      for _ = 1 to n do
        Spans.with_span probe "calibration" ignore
      done)
  in
  let per_span = cost.Probe.wall_s /. float_of_int n in
  let spans = List.length (Spans.spans (List.hd replays)) in
  let recorder_s = per_span *. float_of_int spans in
  ( "telemetry.trace_overhead_frac",
    "ratio",
    Stats.ratio recorder_s (replay_wall_s -. recorder_s) )
