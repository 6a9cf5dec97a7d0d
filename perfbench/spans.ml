(* In-memory span recorder for the traced run. Each span is one call into
   a layer's public function, recorded from the benchmark's side of the
   boundary: name, start, end, parent span and the run id shared by every
   span of one run, plus the call's GC deltas and any counts taken at the
   same boundary. Spans stay in memory until {!to_json}. *)

module Json = Accals_telemetry.Json

type span = {
  id : int;
  parent : int;  (** 0 for a root span *)
  name : string;
  start_s : float;
  end_s : float;
  probe : Probe.sample;
  counts : (string * float) list;
}

type t = {
  run_id : string;
  mutable next_id : int;
  mutable stack : int list;
  mutable spans : span list;  (** newest first *)
}

let create ~run_id = { run_id; next_id = 1; stack = []; spans = [] }

let with_span ?(counts = fun _ -> []) t name f =
  let id = t.next_id in
  t.next_id <- id + 1;
  let parent = match t.stack with p :: _ -> p | [] -> 0 in
  t.stack <- id :: t.stack;
  let start_s = Accals_telemetry.Clock.now () in
  let result, probe =
    Fun.protect
      ~finally:(fun () -> t.stack <- List.tl t.stack)
      (fun () -> Probe.measure f)
  in
  t.spans <-
    {
      id;
      parent;
      name;
      start_s;
      end_s = start_s +. probe.Probe.wall_s;
      probe;
      counts = counts result;
    }
    :: t.spans;
  result

let spans t = List.rev t.spans

(* A span's duration minus the part of it its direct children cover
   (children run one after another, never overlapping). *)
let self_times t =
  let child = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        let prev = Option.value (Hashtbl.find_opt child s.parent) ~default:0.0 in
        Hashtbl.replace child s.parent (prev +. s.probe.Probe.wall_s))
    t.spans;
  List.map
    (fun s ->
      let covered = Option.value (Hashtbl.find_opt child s.id) ~default:0.0 in
      (s, Float.max 0.0 (s.probe.Probe.wall_s -. covered)))
    (spans t)

(* Sum of self seconds over every span with this name. *)
let self_s t name =
  List.fold_left
    (fun acc (s, self) -> if s.name = name then acc +. self else acc)
    0.0 (self_times t)

let total t name f =
  List.fold_left
    (fun acc s -> if s.name = name then acc +. f s else acc)
    0.0 t.spans

let count t name key =
  total t name (fun s -> Option.value (List.assoc_opt key s.counts) ~default:0.0)

let to_json t =
  let span_json (s, self) =
    Json.Obj
      ([
         ("run_id", Json.String t.run_id);
         ("id", Json.Int s.id);
         ("parent", Json.Int s.parent);
         ("name", Json.String s.name);
         ("start_s", Json.Float s.start_s);
         ("end_s", Json.Float s.end_s);
         ("self_s", Json.Float self);
         ("cpu_s", Json.Float s.probe.Probe.cpu_s);
         ("minor_words", Json.Float s.probe.Probe.minor_words);
         ("major_words", Json.Float s.probe.Probe.major_words);
         ("minor_gcs", Json.Int s.probe.Probe.minor_gcs);
         ("major_gcs", Json.Int s.probe.Probe.major_gcs);
         ("top_heap_words", Json.Int s.probe.Probe.top_heap_words);
       ]
      @ List.map (fun (k, v) -> (k, Json.Float v)) s.counts)
  in
  Json.Obj
    [
      ("run_id", Json.String t.run_id);
      ("spans", Json.List (List.map span_json (self_times t)));
    ]
