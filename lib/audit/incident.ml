module Json = Accals_telemetry.Json

type kind =
  | Audit_divergence of {
      backend : string;
      nodes : int list;
      fp_reference : string;
      fp_observed : string;
      recorded_error : float;
      reference_error : float;
    }
  | Checkpoint_corrupt of { path : string; detail : string }
  | Certification_violation of { measured : float; bound : float; step : int }
  | Watchdog_expired of { scope : string }
  | Deadline_exceeded of { job : string; phase : string; deadline_s : float }
  | Job_quarantined of { fingerprint : string; failures : int; cooldown_s : float }
  | Resource_exhausted of { resource : string; limit : float; observed : float }

type t = { round : int; kind : kind }

let make ~round kind = { round; kind }

let kind_name t =
  match t.kind with
  | Audit_divergence _ -> "audit_divergence"
  | Checkpoint_corrupt _ -> "checkpoint_corrupt"
  | Certification_violation _ -> "certification_violation"
  | Watchdog_expired _ -> "watchdog_expired"
  | Deadline_exceeded _ -> "deadline_exceeded"
  | Job_quarantined _ -> "job_quarantined"
  | Resource_exhausted _ -> "resource_exhausted"

let to_json t =
  let str s = Json.String s and num x = Json.Float x in
  let fields =
    match t.kind with
    | Audit_divergence d ->
      [
        ("backend", str d.backend);
        ("nodes", Json.List (List.map (fun n -> Json.Int n) d.nodes));
        ("fp_reference", str d.fp_reference);
        ("fp_observed", str d.fp_observed);
        ("recorded_error", num d.recorded_error);
        ("reference_error", num d.reference_error);
      ]
    | Checkpoint_corrupt c -> [ ("path", str c.path); ("detail", str c.detail) ]
    | Certification_violation v ->
      [
        ("measured", num v.measured);
        ("bound", num v.bound);
        ("step", Json.Int v.step);
      ]
    | Watchdog_expired w -> [ ("scope", str w.scope) ]
    | Deadline_exceeded d ->
      [
        ("job", str d.job);
        ("phase", str d.phase);
        ("deadline_s", num d.deadline_s);
      ]
    | Job_quarantined q ->
      [
        ("fingerprint", str q.fingerprint);
        ("failures", Json.Int q.failures);
        ("cooldown_s", num q.cooldown_s);
      ]
    | Resource_exhausted r ->
      [
        ("resource", str r.resource);
        ("limit", num r.limit);
        ("observed", num r.observed);
      ]
  in
  Json.Obj (("round", Json.Int t.round) :: ("kind", str (kind_name t)) :: fields)

let append_jsonl ~path incidents =
  if incidents <> [] then begin
    let oc =
      open_out_gen [ Open_append; Open_creat; Open_wronly ] 0o644 path
    in
    Fun.protect ~finally:(fun () -> close_out_noerr oc) @@ fun () ->
    (* Governed write: the incident log shares --state-dir with checkpoints
       and the cache, so chaos runs must be able to starve it too. *)
    List.iter
      (fun t ->
        Accals_resilience.Fault.output_string oc (Json.to_string (to_json t));
        output_char oc '\n')
      incidents;
    flush oc
  end
