module Json = Accals_telemetry.Json
module Clock = Accals_telemetry.Clock
module Metrics = Accals_telemetry.Metrics

type spec = { target_ms : float; objective : float }

let default_spec = { target_ms = 30_000.0; objective = 0.99 }

(* One hour of one-minute buckets: long enough to smooth bursts, short
   enough that a recovered outage stops dominating within the hour. *)
let window_minutes = 60

(* Phase-latency buckets, seconds. Percentiles are linearly
   interpolated inside the winning bucket ({!Metrics.quantile}), which is
   exact enough for a dashboard and costs a fixed 17 ints per (tenant,
   phase). *)
let latency_bounds =
  [|
    0.001; 0.005; 0.01; 0.025; 0.05; 0.1; 0.25; 0.5; 1.0; 2.5; 5.0; 10.0;
    30.0; 60.0; 120.0; 300.0;
  |]

let latency_family = "accals_slo_latency_seconds"
let outcome_family = "accals_slo_jobs_total"
let phases = [ "queue_wait"; "run"; "end_to_end" ]

type minute = { mutable mn_stamp : int; mutable mn_good : int; mutable mn_bad : int }

(* Outcome counts and latencies live in the registry; the rolling
   burn-rate window is the only private state. *)
type t = {
  mutex : Mutex.t;  (* guards [rings]; never held around a registry call *)
  spec : spec;
  rings : (string, minute array) Hashtbl.t;  (* tenant -> window *)
  reg : Metrics.t;
}

let create ?(spec = default_spec) reg =
  if not (spec.target_ms > 0.0) then
    invalid_arg "Slo.create: target_ms must be positive";
  if not (spec.objective > 0.0 && spec.objective < 1.0) then
    invalid_arg "Slo.create: objective must be in (0, 1)";
  { mutex = Mutex.create (); spec; rings = Hashtbl.create 8; reg }

let spec t = t.spec

(* Call with the lock held. *)
let ring_of t tenant =
  match Hashtbl.find_opt t.rings tenant with
  | Some ring -> ring
  | None ->
    let ring =
      Array.init window_minutes (fun _ ->
          { mn_stamp = -1; mn_good = 0; mn_bad = 0 })
    in
    Hashtbl.add t.rings tenant ring;
    ring

let note_minute t ~tenant ~good =
  Mutex.protect t.mutex (fun () ->
      let ring = ring_of t tenant in
      let m = int_of_float (Clock.now () /. 60.0) in
      let slot = ring.(m mod window_minutes) in
      if slot.mn_stamp <> m then begin
        slot.mn_stamp <- m;
        slot.mn_good <- 0;
        slot.mn_bad <- 0
      end;
      if good then slot.mn_good <- slot.mn_good + 1
      else slot.mn_bad <- slot.mn_bad + 1)

let latency t ~tenant ~phase =
  Metrics.histogram t.reg latency_family
    ~help:"Per-tenant job latency by phase"
    ~labels:[ ("tenant", tenant); ("phase", phase) ]
    ~buckets:latency_bounds

let outcome t ~tenant ~outcome =
  Metrics.counter t.reg outcome_family
    ~help:"Per-tenant jobs by SLO outcome"
    ~labels:[ ("tenant", tenant); ("outcome", outcome) ]

let observe_job t ~tenant ?failure ~wait_s ~run_s ~total_s () =
  let good = failure = None && total_s *. 1000.0 <= t.spec.target_ms in
  note_minute t ~tenant ~good;
  List.iter2
    (fun phase s -> Metrics.observe (latency t ~tenant ~phase) s)
    phases [ wait_s; run_s; total_s ];
  let kind =
    match failure with
    | Some kind -> kind
    | None -> if good then "good" else "violated"
  in
  Metrics.incr (outcome t ~tenant ~outcome:kind)

let observe_shed t ~tenant ~kind =
  note_minute t ~tenant ~good:false;
  Metrics.incr (outcome t ~tenant ~outcome:kind)

(* Call with the lock held. Only minutes inside the window count — a
   stale slot (stamp older than the window) is history, not traffic. *)
let window_counts ring =
  let now_m = int_of_float (Clock.now () /. 60.0) in
  Array.fold_left
    (fun (g, b) slot ->
      if slot.mn_stamp >= 0 && now_m - slot.mn_stamp < window_minutes then
        (g + slot.mn_good, b + slot.mn_bad)
      else (g, b))
    (0, 0) ring

(* Error-budget burn rate over the window: the observed bad fraction
   divided by the allowed bad fraction (1 - objective). 1.0 means
   burning exactly the budget; 0 means clean; >> 1 means paging. *)
let burn (good, bad) ~objective =
  if good + bad = 0 then 0.0
  else
    let frac = float_of_int bad /. float_of_int (good + bad) in
    frac /. (1.0 -. objective)

(* Per tenant (sorted by name): its window's (good, bad) counts. *)
let windows t =
  Mutex.protect t.mutex (fun () ->
      Hashtbl.fold (fun name ring acc -> (name, window_counts ring) :: acc)
        t.rings [])
  |> List.sort compare

let burn_rate t ~tenant =
  Mutex.protect t.mutex (fun () ->
      match Hashtbl.find_opt t.rings tenant with
      | None -> 0.0
      | Some ring -> burn (window_counts ring) ~objective:t.spec.objective)

let no_observations =
  {
    Metrics.bounds = latency_bounds;
    counts = Array.make (Array.length latency_bounds + 1) 0;
    sum = 0.0;
    count = 0;
  }

let percentile_fields (h : Metrics.histogram_data) =
  let field name p =
    ( name,
      match Metrics.quantile h p with
      | None -> Json.Null
      | Some s -> Json.Float (s *. 1000.0) )
  in
  Json.Obj
    [
      field "p50_ms" 0.50;
      field "p90_ms" 0.90;
      field "p99_ms" 0.99;
      ( "mean_ms",
        if h.count = 0 then Json.Null
        else Json.Float (1000.0 *. h.sum /. float_of_int h.count) );
      ("count", Json.Int h.count);
    ]

let tenant_json t snap (name, ((good_w, bad_w) as window)) =
  let outcomes =
    List.filter_map
      (fun (s : Metrics.sample) ->
        match (s.value, s.labels) with
        | Metrics.Counter v, [ ("tenant", tn); ("outcome", o) ]
          when s.name = outcome_family && tn = name ->
          Some (o, int_of_float v)
        | _ -> None)
      snap
  in
  let count o = Option.value (List.assoc_opt o outcomes) ~default:0 in
  let total = List.fold_left (fun acc (_, n) -> acc + n) 0 outcomes in
  let failures =
    List.filter (fun (o, _) -> o <> "good" && o <> "violated") outcomes
    |> List.sort compare
  in
  let latency phase =
    ( phase,
      percentile_fields
        (match
           Metrics.find snap ~labels:[ ("tenant", name); ("phase", phase) ]
             latency_family
         with
         | Some (Metrics.Histogram h) -> h
         | _ -> no_observations) )
  in
  Json.Obj
    [
      ("tenant", Json.String name);
      ("jobs_total", Json.Int total);
      ("good", Json.Int (count "good"));
      ("violated", Json.Int (count "violated"));
      ( "failures",
        Json.Obj (List.map (fun (o, n) -> (o, Json.Int n)) failures) );
      ("burn_rate", Json.Float (burn window ~objective:t.spec.objective));
      ( "window",
        Json.Obj
          [
            ("minutes", Json.Int window_minutes);
            ("good", Json.Int good_w);
            ("bad", Json.Int bad_w);
          ] );
      ("latency", Json.Obj (List.map latency phases));
    ]

let to_json t =
  (* The ring lock is released before the registry is read: the two
     lock domains never nest. *)
  let windows = windows t in
  let snap = Metrics.snapshot t.reg in
  Json.Obj
    [
      ("target_ms", Json.Float t.spec.target_ms);
      ("objective", Json.Float t.spec.objective);
      ("window_minutes", Json.Int window_minutes);
      ("tenants", Json.List (List.map (tenant_json t snap) windows));
    ]

let refresh_burn_rates t =
  (* Burn rate is derived from the rolling window, so the gauge is
     refreshed at scrape time rather than on every observation. *)
  List.iter
    (fun (name, window) ->
      Metrics.set
        (Metrics.gauge t.reg "accals_slo_burn_rate"
           ~help:"Error-budget burn rate over the rolling window (1.0 = at budget)"
           ~labels:[ ("tenant", name) ])
        (burn window ~objective:t.spec.objective))
    (windows t)
