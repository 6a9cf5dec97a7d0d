(** Deterministic fault injection: one grammar, one parser, one table of
    sites.

    A spec is a comma-separated list of fields:

    {v
      seed:N                 hash seed; required by any %K clause
      attempts:N             task clauses fire only on attempts < N (default 1)
      SITE:KIND SEL          a fault clause

      site                   kinds                  selectors
      task                   raise | stall=SECONDS  %K, keyed on (seed, batch, index)
      open|write|fsync|rename  enospc|emfile|short  @N | @N..M | %K, keyed on the
                                                    site's occurrence count
      audit                  corrupt                @N | @N..M: audited rounds
    v}

    e.g. [seed:42,task:raise%4], [seed:7,task:stall=0.002%2],
    [write:enospc@3], [open:emfile@1..4], [seed:9,rename:enospc%8],
    [audit:corrupt@1].

    Every decision is a pure function of the spec and of a key that does
    not depend on scheduling, so a failing chaos run replays exactly:
    - a [task] unit is selected by [(seed, batch, index)] — never by
      occurrence order, wall clock or domain identity. A selected attempt
      raises {!Injected} (a crashed worker) or sleeps (a hung one);
    - the [open]/[write]/[fsync]/[rename] sites each count their governed
      calls (1-based); [@N..M] selects occurrences N to M, [%K] one in K
      keyed on [(seed, site, occurrence)]. An injected failure surfaces as
      [Unix.Unix_error (ENOSPC | EMFILE, ...)]; a [short] write first lands
      a prefix of its payload (a torn file), then raises [ENOSPC];
    - an [audit] clause names the rounds whose shadow audit sees one
      deliberately corrupted signature.

    A spec is armed at program start from [ACCALS_FAULTS]; the clauses of
    [ACCALS_SYSCALL_FAULTS], read by the same parser, are added to it (the
    larger [attempts] wins). A malformed value of either variable is a
    configuration error: the process prints a one-line diagnostic to
    stderr and exits with code 2, rather than silently running without the
    requested faults. *)

type site = Open | Write | Rename | Fsync | Task | Audit

type kind =
  | Raise  (** task: the attempt raises {!Injected} *)
  | Stall of float  (** task: the attempt sleeps this many seconds *)
  | Enospc
  | Emfile
  | Short  (** write: land a prefix, then raise [ENOSPC] *)
  | Corrupt  (** audit: corrupt one stored signature *)

type sel =
  | At of int * int  (** inclusive 1-based occurrence (audit: round) range *)
  | Every of { seed : int; k : int }  (** one in [k], keyed on [seed] *)

type clause = { site : site; kind : kind; sel : sel }
type spec = { attempts : int; clauses : clause list }

exception Injected of { batch : int; index : int; attempt : int }
(** The simulated worker crash. Carries the logical batch serial, the task
    index within the batch and the attempt number (0 = first try). *)

val parse : string -> (spec, string) result
(** Parse the grammar above. A spec needs at least one clause. *)

val with_spec : string -> (unit -> 'a) -> 'a
(** [with_spec s f] parses and arms [s] process-wide (all pools, all
    domains), resets the occurrence counters and {!injected_count}, runs
    [f], and re-arms the previous spec (or none) even if [f] raises.
    Raises [Invalid_argument] if [s] does not parse. *)

val current : unit -> spec option
(** The armed spec, if any. *)

val injected_count : unit -> int
(** Faults injected at every site since process start or the last
    {!with_spec}. *)

(** {2 Task site} *)

val fresh_batch : unit -> int
(** Next logical batch serial. The fan-out layer draws one serial per
    logical submission and reuses it for every retry attempt of that
    submission, keeping the fault decision independent of retries. *)

val check : batch:int -> index:int -> attempt:int -> unit
(** Consulted once per task attempt: one atomic read when nothing is armed;
    otherwise raises {!Injected} or stalls when a [task] clause selects
    the unit. *)

(** {2 Audit site} *)

val corrupts_audit : round:int -> bool
(** Whether the shadow audit of [round] should see a corrupted signature. *)

(** {2 Governed I/O}

    Drop-in replacements for the stdlib/Unix calls on durable-write paths
    (checkpoints, cache entries, incident logs). With no clause for their
    site they are the plain calls. *)

val open_out_bin : string -> out_channel
val output_string : out_channel -> string -> unit
val output_bytes : out_channel -> bytes -> unit
val fsync : Unix.file_descr -> unit
val rename : string -> string -> unit
