(** Structured incident records for the self-auditing runtime.

    Every anomaly the runtime survives — a shadow-audit divergence, a
    corrupt checkpoint skipped during resume, a certification measurement
    violating the bound, an expired watchdog — is recorded as an incident
    and (from the CLI) appended to a JSONL incident log: one JSON object
    per line, no framing, safe to append to across runs. *)

type kind =
  | Audit_divergence of {
      backend : string;
          (** setting of the audited database: ["incremental"] (persistent)
              or ["rebuild"] (per-round) *)
      nodes : int list;  (** sample of diverging node ids (at most 8) *)
      fp_reference : string;  (** CRC-32 fingerprint of the re-derived signatures *)
      fp_observed : string;  (** fingerprint of the audited database's signatures *)
      recorded_error : float;  (** error the round loop recorded *)
      reference_error : float;  (** error re-derived from scratch *)
    }
  | Checkpoint_corrupt of { path : string; detail : string }
  | Certification_violation of { measured : float; bound : float; step : int }
  | Watchdog_expired of { scope : string }  (** ["run"] or ["round"] *)
  | Deadline_exceeded of {
      job : string;  (** daemon job id *)
      phase : string;  (** ["queued"] (expired before starting) or ["running"] *)
      deadline_s : float;  (** the client-requested deadline, seconds *)
    }  (** A service job blew its client-supplied wall-clock deadline. *)
  | Job_quarantined of {
      fingerprint : string;  (** digest/budget fingerprint of the poison job *)
      failures : int;  (** abnormal worker deaths observed *)
      cooldown_s : float;  (** how long resubmissions will be refused *)
    }  (** Crash-loop detection tripped: the job is refused admission. *)
  | Resource_exhausted of {
      resource : string;  (** ["memory"], ["disk"] or ["fds"] *)
      limit : float;  (** the configured ceiling, in the resource's unit *)
      observed : float;  (** the measurement that tripped the governor *)
    }
      (** A budget governor ran out of non-destructive responses: the work
          was checkpointed and shed (memory), degraded (disk), or refused
          (fds) — never left to the OOM killer or a failing [accept]. *)

type t = { round : int; kind : kind }
(** [round] is 0 for service-side incidents (they are not tied to an
    engine round). *)

val make : round:int -> kind -> t

val kind_name : t -> string
(** The stable [kind] discriminator used in the JSON encoding. *)

val to_json : t -> Accals_telemetry.Json.t
(** The incident as a JSON object: [round], [kind], then the kind's
    fields. The log line and the [--json] report both print this. *)

val append_jsonl : path:string -> t list -> unit
(** Append each incident as one line to [path], creating it if needed.
    No-op on the empty list. *)
