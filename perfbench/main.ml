(* The repository benchmark. One run measures one workload for a fixed
   time and prints one JSON line as its last line of output:

     {"correct": bool, "attempted": n, "failed": n, "metrics": {...}}

   With --trace 0 the metrics are the end-to-end ones, measured with no
   recorder attached; with --trace 1 they are the per-layer ones, taken
   from a replay of engine rounds through the layers' public functions
   with a span around every call (spans are written to
   .perfbench/trace-<workload>-<seed>.json). See perfbench/DESIGN.md.

   Usage:
     bash perfbench/run.sh --workload scale-10k --seed 1 --seconds 20 --trace 0 *)

open Accals_network
module Json = Accals_telemetry.Json
module Clock = Accals_telemetry.Clock
module Engine = Accals.Engine
module Config = Accals.Config
module Trace = Accals.Trace
module Pool = Accals_runtime.Pool
module Stats_rt = Accals_runtime.Stats
module Blif = Accals_io.Blif

let workloads = [ "scale-10k"; "scale-10k-j2"; "serve-mix" ]

type outcome = {
  attempted : int;
  failed : int;
  why : string;  (** first failure, for stderr *)
  metrics : (string * string * float) list;
}

let work_root = ".perfbench"

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(* [dir] is a directory directly under [work_root]. *)
let make_run_dir dir =
  List.iter
    (fun d -> try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ())
    [ work_root; dir ]

(* Set-up is repeated at least [setup_min] times and until the repeats
   have taken [setup_total_s] (at most [setup_max] times); the median is
   reported. Set-ups take 6-100 ms, so a fixed handful of repeats left
   their median spreading 0.14-0.33 over ten seeds. *)
let setup_min = 7
let setup_total_s = 0.5
let setup_max = 40

(* [make ()] sets up once, returning what it built and its set-up time;
   [discard] tears down every repeat but the last, which is returned. *)
let repeat_setup make ~discard =
  let rec go acc =
    let built, s = make () in
    let acc = s :: acc in
    let n = List.length acc in
    if n >= setup_max || (n >= setup_min && Stats.sum acc >= setup_total_s) then
      (built, List.rev acc)
    else begin
      discard built;
      go acc
    end
  in
  go []

(* Keep starting passes while the median pass still fits in the window;
   at least [min_passes] always run. *)
let timed_loop ?(min_passes = 1) ~seconds ~wall pass =
  let t0 = Clock.now () in
  let rec go acc =
    let elapsed = Clock.now () -. t0 in
    let fits =
      List.length acc < min_passes
      || elapsed +. Stats.median (List.map wall acc) <= seconds
    in
    if fits then go (pass (List.length acc) :: acc) else List.rev acc
  in
  go []

(* -- engine workloads: end to end ----------------------------------------- *)

type sample = {
  job : Engine_load.job;
  report : Engine.report;
  probe : Probe.sample;
  digest : string;
}

let setup_engine (spec : Engine_load.spec) ~seed =
  let make () =
    let jobs = spec.Engine_load.make seed in
    let pool =
      if spec.Engine_load.jobs > 1 then Some (Pool.create ~jobs:spec.Engine_load.jobs)
      else None
    in
    (jobs, pool)
  in
  repeat_setup
    (fun () ->
      let built, p = Probe.measure make in
      (built, p.Probe.wall_s))
    ~discard:(fun (_, pool) -> Option.iter Pool.shutdown pool)

(* The workload's jobs run in turn, one sample per [Engine.run], for as
   long as the window allows (every job at least once). A pass is the
   whole job list: its time and work are the sum over jobs of each job's
   mean over the window, so a window that ends part-way through the list
   still counts every sample and weights no job by where it ended. Means,
   not medians: a run holds only three to five samples of a job, and a
   median of so few is one or two of them. *)
let engine_e2e (spec : Engine_load.spec) ~seed ~seconds =
  let (jobs, pool), setup = setup_engine spec ~seed in
  let jobs = Array.of_list jobs in
  let n_jobs = Array.length jobs in
  let samples =
    timed_loop ~min_passes:n_jobs ~seconds
      ~wall:(fun s -> s.probe.Probe.wall_s)
      (fun i ->
        let job = jobs.(i mod n_jobs) in
        let report, probe = Probe.measure (fun () -> Engine_load.run ?pool job) in
        Printf.eprintf "perfbench: %s wall %.3f s cpu %.3f s\n%!" job.Engine_load.label
          probe.Probe.wall_s probe.Probe.cpu_s;
        { job; report; probe; digest = Network.digest report.Engine.approximate })
  in
  let top_heap = (Gc.quick_stat ()).Gc.top_heap_words in
  Option.iter Pool.shutdown pool;
  let by_job =
    Array.to_list
      (Array.map (fun j -> List.filter (fun s -> s.job == j) samples) jobs)
  in
  let firsts = List.map List.hd by_job in
  (* Checks: every result, every sample repeating its job's first bit for
     bit, and for a multi-domain workload the -j1 digest. *)
  let failures = ref [] in
  let fail why = failures := why :: !failures in
  List.iter
    (fun s ->
      let c = Engine_load.check ~seed s.job s.report in
      if not c.Checks.ok then fail (s.job.Engine_load.label ^ ": " ^ c.Checks.why))
    samples;
  List.iter2
    (fun first ss ->
      List.iter
        (fun s ->
          if s.digest <> first.digest then
            fail (s.job.Engine_load.label ^ ": result differs from the first run"))
        ss)
    firsts by_job;
  if spec.Engine_load.jobs > 1 then
    List.iter
      (fun s ->
        let j1 =
          { s.job with
            Engine_load.config = { s.job.Engine_load.config with Config.jobs = 1 } }
        in
        let r = Engine_load.run j1 in
        if Network.digest r.Engine.approximate <> s.digest then
          fail (s.job.Engine_load.label ^ ": digest differs from the -j1 run"))
      firsts;
  let per_pass f = Stats.sum (List.map (fun ss -> Stats.mean (List.map f ss)) by_job) in
  let walls = List.map (fun s -> s.probe.Probe.wall_s) samples in
  {
    attempted = List.length samples;
    failed = List.length !failures;
    why = (match List.rev !failures with w :: _ -> w | [] -> "");
    metrics =
      [
        ("setup_s", "s", Stats.median setup);
        ("wall_s", "s", per_pass (fun s -> s.probe.Probe.wall_s));
        ("cpu_s", "s", per_pass (fun s -> s.probe.Probe.cpu_s));
        (* The first run of a job allocates a little more (one-time
           initialisation); each job's last run repeats exactly. *)
        ( "alloc_gwords",
          "Gwords",
          Stats.sum
            (List.map (fun ss -> (List.hd (List.rev ss)).probe.Probe.alloc_words) by_job)
          /. 1e9 );
        ("peak_heap_mb", "MB", Probe.heap_mb top_heap);
        ( "rounds",
          "count",
          per_pass (fun s -> float_of_int (List.length s.report.Engine.rounds)) );
        ("adp_ratio", "ratio", Stats.geomean (List.map (fun s -> s.report.Engine.adp_ratio) firsts));
        ("jobs_per_s", "1/s", float_of_int (List.length samples) /. Stats.sum walls);
        ("cold_p50_ms", "ms", Stats.median walls *. 1000.0);
      ];
  }

(* -- engine workloads: traced ---------------------------------------------- *)

type replay_input = {
  r_job : Engine_load.job;
  golden : Accals_bitvec.Bitvec.t array;
  mid : Network.t;
  mid_rounds : Trace.round list;
}

let prepare_replay ~seed ?pool (j : Engine_load.job) =
  let capped =
    { j with
      Engine_load.config =
        { j.Engine_load.config with Config.max_rounds = j.Engine_load.mid_rounds } }
  in
  let report = Engine_load.run ?pool capped in
  ( {
      r_job = j;
      golden =
        Accals_esterr.Evaluate.output_signatures j.Engine_load.net j.Engine_load.patterns;
      mid = report.Engine.approximate;
      mid_rounds = report.Engine.rounds;
    },
    Engine_load.check ~seed capped report )

(* One traced replay: for each circuit a first round and a mid-run round,
   then BLIF out and back in. Returns, per circuit, the LACs the two rounds
   committed and the candidates they generated. *)
let replay_once spans ?pool inputs =
  List.map
    (fun r ->
      let j = r.r_job in
      let round circuit =
        Replay.round spans ?pool ~config:j.Engine_load.config ~metric:j.Engine_load.metric
          ~bound:j.Engine_load.bound ~patterns:j.Engine_load.patterns ~golden:r.golden
          circuit
      in
      let a1, c1 = round j.Engine_load.net in
      let a2, c2 = round r.mid in
      Replay.io spans r.mid;
      ((a1, c1), (a2, c2)))
    inputs

let traced_replays ~run_id ~seconds ?pool inputs =
  let stats0 = Option.map (fun p -> Stats_rt.snapshot (Pool.stats p)) pool in
  let replays =
    timed_loop ~seconds
      ~wall:(fun (_, p, _) -> p.Probe.wall_s)
      (fun _ ->
        let spans = Spans.create ~run_id in
        let counts, probe = Probe.measure (fun () -> replay_once spans ?pool inputs) in
        (spans, probe, counts))
  in
  let n = List.length replays in
  let runtime =
    match (pool, stats0) with
    | Some p, Some s0 ->
      let s1 = Stats_rt.snapshot (Pool.stats p) in
      {
        s1 with
        Stats_rt.tasks = (s1.Stats_rt.tasks - s0.Stats_rt.tasks) / n;
        batches = (s1.Stats_rt.batches - s0.Stats_rt.batches) / n;
        steals = (s1.Stats_rt.steals - s0.Stats_rt.steals) / n;
        idle_seconds = (s1.Stats_rt.idle_seconds -. s0.Stats_rt.idle_seconds) /. float_of_int n;
      }
    | _ -> Stats_rt.empty
  in
  (replays, runtime)

let write_spans ~workload ~seed recorders =
  let path = Filename.concat work_root (Printf.sprintf "trace-%s-%d.json" workload seed) in
  Json.write_file path (Json.List (List.map Spans.to_json recorders))

let engine_layers ~replays ~runtime ~rounds =
  let spans = List.map (fun (s, _, _) -> s) replays in
  let _, probe, counts = List.hd replays in
  let applied =
    List.fold_left (fun acc ((a1, _), (a2, _)) -> acc + a1 + a2) 0 counts
  in
  let engine =
    Layers.engine_layers ~replays:spans ~rounds ~runtime ~gc:probe
      ~applied:(float_of_int applied)
  in
  let wall = Stats.median (List.map (fun (_, p, _) -> p.Probe.wall_s) replays) in
  engine @ Layers.io_layer spans @ [ Layers.overhead_frac spans ~replay_wall_s:wall ]

(* The replay must retrace the engine: its first round commits what the
   engine's round 1 committed (unless that round was reverted), and every
   repetition commits the same. *)
let replay_failures inputs replays =
  let first = List.map (fun (_, _, c) -> c) replays in
  let reference = List.hd first in
  List.concat
    [
      (if List.for_all (( = ) reference) first then []
       else [ "replays differ between repetitions" ]);
      List.concat
        (List.map2
           (fun r ((a1, _), _) ->
             match r.mid_rounds with
             | { Trace.mode = Trace.Multi; reverted = false; applied; _ } :: _
               when applied <> a1 ->
               [
                 Printf.sprintf "%s: replayed round 1 committed %d LACs, the engine %d"
                   r.r_job.Engine_load.label a1 applied;
               ]
             | _ -> [])
           inputs reference);
    ]

let engine_trace (spec : Engine_load.spec) ~workload ~seed ~seconds =
  let (jobs, pool), _ = setup_engine spec ~seed in
  let t0 = Clock.now () in
  let prepared = List.map (prepare_replay ~seed ?pool) jobs in
  let inputs = List.map fst prepared in
  let remaining = seconds -. (Clock.now () -. t0) in
  let run_id = Printf.sprintf "%s-%d-%d" workload seed (Unix.getpid ()) in
  let replays, runtime = traced_replays ~run_id ~seconds:remaining ?pool inputs in
  Option.iter Pool.shutdown pool;
  write_spans ~workload ~seed (List.map (fun (s, _, _) -> s) replays);
  let failures =
    List.filter_map
      (fun (r, c) ->
        if c.Checks.ok then None else Some (r.r_job.Engine_load.label ^ ": " ^ c.Checks.why))
      prepared
    @ replay_failures inputs replays
  in
  let rounds = List.concat_map (fun r -> r.mid_rounds) inputs in
  {
    attempted = List.length prepared + List.length replays;
    failed = List.length failures;
    why = (match failures with w :: _ -> w | [] -> "");
    metrics = engine_layers ~replays ~runtime ~rounds @ Layers.no_server;
  }

(* -- serve-mix ------------------------------------------------------------- *)

let shed_codes = [ "overloaded"; "quarantined"; "resource_exhausted" ]

let is_shed (j : Serve_load.job) =
  match j.Serve_load.response with
  | Error e -> List.exists (fun c -> String.starts_with ~prefix:c e) shed_codes
  | Ok _ -> false

let serve_checks ~seed passes =
  List.mapi (fun pass p -> Serve_load.check_pass ~seed ~pass p) passes

let first_why checks =
  List.fold_left (fun acc (_, why) -> if acc = "" then why else acc) "" checks

(* Rounds and ADP of serve-mix come from the first [quality_passes]
   passes, which always run, so they repeat exactly for a seed. *)
let quality_passes = 4

let serve_e2e ~seed ~seconds ~dir =
  let unclean = ref 0 in
  let stop d = if not (Serve_load.stop d) then incr unclean in
  let index = ref 0 in
  let d, setup =
    repeat_setup
      (fun () ->
        incr index;
        Serve_load.start ~dir ~index:!index)
      ~discard:stop
  in
  let passes =
    timed_loop ~min_passes:quality_passes ~seconds
      ~wall:(fun p -> p.Serve_load.wall_s)
      (fun pass -> Serve_load.run_pass d ~seed ~pass)
  in
  stop d;
  let checks = serve_checks ~seed passes in
  let jobs = List.concat_map (fun p -> p.Serve_load.jobs) passes in
  let fresh (j : Serve_load.job) = (not j.Serve_load.cached) && not j.Serve_load.coalesced in
  let latencies f = List.map (fun j -> j.Serve_load.latency_ms) (List.filter f jobs) in
  (* Per distinct circuit: the daemon's own report of its fresh run. *)
  let reports =
    List.filteri (fun i _ -> i < quality_passes) passes
    |> List.concat_map (fun p -> p.Serve_load.jobs)
    |> List.filter_map (fun j ->
           match j.Serve_load.response with
           | Ok r when fresh j -> Json.member "report" r
           | _ -> None)
  in
  let report_num k = List.filter_map (Serve_load.num k) reports in
  let alloc, top_heap =
    match Serve_load.gc_totals d with
    | Some totals -> totals
    | None -> failwith "daemon printed no GC statistics at exit"
  in
  let n_passes = float_of_int (List.length passes) in
  let walls = List.map (fun p -> p.Serve_load.wall_s) passes in
  let failed = List.fold_left (fun acc (f, _) -> acc + f) !unclean checks in
  {
    attempted = List.length jobs;
    failed;
    why = (if !unclean > 0 then "daemon did not exit cleanly" else first_why checks);
    metrics =
      [
        ("setup_s", "s", Stats.median setup);
        ("wall_s", "s", Stats.median walls);
        ("cpu_s", "s", Stats.median (List.map (fun p -> p.Serve_load.cpu_s) passes));
        ("alloc_gwords", "Gwords", alloc /. n_passes /. 1e9);
        ("peak_heap_mb", "MB", Probe.heap_mb (int_of_float top_heap));
        ("rounds", "count", Stats.sum (report_num "rounds") /. float_of_int quality_passes);
        ("adp_ratio", "ratio", Stats.geomean (report_num "adp_ratio"));
        ("jobs_per_s", "1/s", float_of_int (List.length jobs) /. Stats.sum walls);
        ("cold_p50_ms", "ms", Stats.median (latencies fresh));
      ];
  }

let serve_trace ~seed ~seconds ~dir =
  let run_id = Printf.sprintf "serve-mix-%d-%d" seed (Unix.getpid ()) in
  let d, _ = Serve_load.start ~dir ~index:0 in
  let t0 = Clock.now () in
  let pings =
    let c = Accals_server.Client.connect_unix d.Serve_load.socket in
    let rtts =
      List.init 50 (fun _ ->
          let ok, p = Probe.measure (fun () -> Accals_server.Client.ping c) in
          if ok then Some (p.Probe.wall_s *. 1000.0) else None)
    in
    Accals_server.Client.close c;
    rtts
  in
  let client_spans = ref [] in
  let passes =
    timed_loop ~seconds:(seconds /. 2.0)
      ~wall:(fun p -> p.Serve_load.wall_s)
      (fun pass ->
        let spans = Array.init 2 (fun _ -> Spans.create ~run_id) in
        client_spans := Array.to_list spans @ !client_spans;
        Serve_load.run_pass ~spans d ~seed ~pass)
  in
  let unclean = if Serve_load.stop d then 0 else 1 in
  let checks = serve_checks ~seed passes in
  let jobs = List.concat_map (fun p -> p.Serve_load.jobs) passes in
  let fresh = List.filter (fun j -> (not j.Serve_load.cached) && not j.Serve_load.coalesced) jobs in
  let view k j =
    match j.Serve_load.response with
    | Ok r -> Option.map (fun s -> s *. 1000.0) (Serve_load.num k r)
    | Error _ -> None
  in
  let med_or_zero = function [] -> 0.0 | xs -> Stats.median xs in
  let hit_ms =
    List.filter_map
      (fun j ->
        if j.Serve_load.kind = Serve_load.Hit && j.Serve_load.cached then
          Some j.Serve_load.latency_ms
        else None)
      jobs
  in
  let cold_ms = List.map (fun j -> j.Serve_load.latency_ms) fresh in
  let server =
    [
      ("server.ping_rtt_ms", "ms", med_or_zero (List.filter_map Fun.id pings));
      ( "server.submit_rtt_ms",
        "ms",
        med_or_zero
          (List.filter_map
             (fun j -> if j.Serve_load.cached then Some j.Serve_load.submit_rtt_ms else None)
             jobs) );
      ("server.queue_wait_ms", "ms", med_or_zero (List.filter_map (view "wait_s") fresh));
      ("server.run_ms", "ms", med_or_zero (List.filter_map (view "run_s") fresh));
      ( "server.cache_hit_ratio",
        "ratio",
        Stats.ratio
          (float_of_int (List.length (List.filter (fun j -> j.Serve_load.cached) jobs)))
          (float_of_int (List.length jobs)) );
      ( "server.coalesced",
        "count",
        (* A resubmission of a finished job also reports [coalesced];
           only those that joined a job still running count here. *)
        float_of_int
          (List.length
             (List.filter (fun j -> j.Serve_load.coalesced && not j.Serve_load.cached) jobs))
      );
      ("server.shed", "count", float_of_int (List.length (List.filter is_shed jobs)));
      ("server.hit_p50_ms", "ms", med_or_zero hit_ms);
      ("server.hit_p90_ms", "ms", (match hit_ms with [] -> 0.0 | l -> Stats.quantile 0.9 l));
      ("server.hit_samples", "count", float_of_int (List.length hit_ms));
      ("server.cold_p50_ms", "ms", med_or_zero cold_ms);
      ("server.cold_samples", "count", float_of_int (List.length cold_ms));
      ("server.poll_interval_ms", "ms", Serve_load.poll_s *. 1000.0);
    ]
  in
  (* The engine and io layers on this workload's own inputs: the first
     circuit of the first pass, replayed as the daemon would run it. *)
  let c0 = (Serve_load.pass_circuits ~seed ~pass:0).(0) in
  let job =
    Engine_load.job ~mid_rounds:3 ~seed:c0.Serve_load.spec.Accals_server.Protocol.seed
      ~jobs:1 ~label:"mix"
      ~metric:Accals_metrics.Metric.Error_rate
      ~bound:Serve_load.bound (Blif.parse_string c0.Serve_load.text)
  in
  let input, capped = prepare_replay ~seed job in
  let remaining = seconds -. (Clock.now () -. t0) in
  let replays, runtime = traced_replays ~run_id ~seconds:remaining [ input ] in
  (* The io layer here is the submission path: each circuit written as
     BLIF and read back, as client and daemon do. *)
  List.iter
    (fun (spans, _, _) ->
      Array.iter
        (fun c -> Replay.io spans c.Serve_load.net)
        (Serve_load.pass_circuits ~seed ~pass:0))
    replays;
  write_spans ~workload:"serve-mix" ~seed
    (List.map (fun (s, _, _) -> s) replays @ !client_spans);
  let failures =
    (if capped.Checks.ok then [] else [ capped.Checks.why ])
    @ (if List.mem None pings then [ "a ping went unanswered" ] else [])
    @ replay_failures [ input ] replays
  in
  let failed =
    List.fold_left (fun acc (f, _) -> acc + f) (unclean + List.length failures) checks
  in
  {
    attempted = List.length jobs + 1 + List.length replays;
    failed;
    why = (match failures with w :: _ -> w | [] -> first_why checks);
    metrics = engine_layers ~replays ~runtime ~rounds:input.mid_rounds @ server;
  }

(* -- command line ---------------------------------------------------------- *)

let print_result o =
  let metric (name, unit, value) =
    (name, Json.Obj [ ("value", Json.Float value); ("unit", Json.String unit) ])
  in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool (o.failed = 0));
            ("attempted", Json.Int o.attempted);
            ("failed", Json.Int o.failed);
            ("metrics", Json.Obj (List.map metric o.metrics));
          ]))

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0 and trace = ref (-1) in
  let spec =
    [
      ("--workload", Arg.Set_string workload, " " ^ String.concat " | " workloads);
      ("--seed", Arg.Set_int seed, "N input seed (>= 0)");
      ("--seconds", Arg.Set_int seconds, "S measuring time");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ( "--accals",
        Arg.Set_string Serve_load.daemon_binary,
        "PATH accals executable for serve-mix" );
    ]
  in
  let usage = "perfbench --workload W --seed N --seconds S --trace 0|1" in
  Arg.parse (Arg.align spec) (fun a -> raise (Arg.Bad ("unexpected " ^ a))) usage;
  if
    (not (List.mem !workload workloads))
    || !seed < 0 || !seconds < 1 || (!trace <> 0 && !trace <> 1)
  then begin
    prerr_endline usage;
    exit 2
  end;
  let dir = Filename.concat work_root (Printf.sprintf "run-%d" (Unix.getpid ())) in
  make_run_dir dir;
  at_exit (fun () ->
      Serve_load.kill_all ();
      rm_rf dir);
  (* A terminated run still stops its daemons and removes its files. *)
  List.iter
    (fun signal -> Sys.set_signal signal (Sys.Signal_handle (fun _ -> exit 130)))
    [ Sys.sigint; Sys.sigterm ];
  let seed = !seed and seconds = float_of_int !seconds in
  let engine spec =
    if !trace = 1 then engine_trace spec ~workload:!workload ~seed ~seconds
    else engine_e2e spec ~seed ~seconds
  in
  let outcome =
    match !workload with
    | "scale-10k" -> engine (Engine_load.scale ~jobs:1)
    | "scale-10k-j2" -> engine (Engine_load.scale ~jobs:2)
    | _ ->
      if !trace = 1 then serve_trace ~seed ~seconds ~dir
      else serve_e2e ~seed ~seconds ~dir
  in
  if outcome.failed > 0 then prerr_endline ("perfbench: check failed: " ^ outcome.why);
  print_result outcome
