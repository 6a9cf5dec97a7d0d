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

let escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let to_json t =
  let buf = Buffer.create 128 in
  Buffer.add_string buf
    (Printf.sprintf "{\"round\": %d, \"kind\": \"%s\"" t.round (kind_name t));
  (match t.kind with
   | Audit_divergence d ->
     Buffer.add_string buf
       (Printf.sprintf ", \"backend\": \"%s\", \"nodes\": [%s]"
          (escape d.backend)
          (String.concat ", " (List.map string_of_int d.nodes)));
     Buffer.add_string buf
       (Printf.sprintf
          ", \"fp_reference\": \"%s\", \"fp_observed\": \"%s\", \
           \"recorded_error\": %.9g, \"reference_error\": %.9g"
          (escape d.fp_reference) (escape d.fp_observed) d.recorded_error
          d.reference_error)
   | Checkpoint_corrupt c ->
     Buffer.add_string buf
       (Printf.sprintf ", \"path\": \"%s\", \"detail\": \"%s\""
          (escape c.path) (escape c.detail))
   | Certification_violation v ->
     Buffer.add_string buf
       (Printf.sprintf ", \"measured\": %.9g, \"bound\": %.9g, \"step\": %d"
          v.measured v.bound v.step)
   | Watchdog_expired w ->
     Buffer.add_string buf
       (Printf.sprintf ", \"scope\": \"%s\"" (escape w.scope))
   | Deadline_exceeded d ->
     Buffer.add_string buf
       (Printf.sprintf
          ", \"job\": \"%s\", \"phase\": \"%s\", \"deadline_s\": %.9g"
          (escape d.job) (escape d.phase) d.deadline_s)
   | Job_quarantined q ->
     Buffer.add_string buf
       (Printf.sprintf
          ", \"fingerprint\": \"%s\", \"failures\": %d, \"cooldown_s\": %.9g"
          (escape q.fingerprint) q.failures q.cooldown_s)
   | Resource_exhausted r ->
     Buffer.add_string buf
       (Printf.sprintf
          ", \"resource\": \"%s\", \"limit\": %.9g, \"observed\": %.9g"
          (escape r.resource) r.limit r.observed));
  Buffer.add_char buf '}';
  Buffer.contents buf

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
        Accals_resilience.Fault.output_string oc (to_json t);
        output_char oc '\n')
      incidents;
    flush oc
  end
