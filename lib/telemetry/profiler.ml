external cputime_ns : unit -> (int64[@unboxed])
  = "accals_process_cputime_ns_byte" "accals_process_cputime_ns"
[@@noalloc]

type mode = Cpu | Wall

let mode_name = function Cpu -> "cpu" | Wall -> "wall"

let mode_of_string = function
  | "cpu" -> Some Cpu
  | "wall" -> Some Wall
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Worker phase labels.

   OCaml 5 delivers signals to domain 0 at safepoints, so the handler
   can capture a real callstack only for the domain it runs on. Worker
   domains instead publish a phase label ("simulate", "select", steal /
   idle states ...) into a fixed slot indexed by their Tracer tid; the
   handler snapshots the slots lock-free with Atomic reads. The slots
   are immutable-string atomics — no tearing, no locks, safe from a
   signal handler. *)

let max_labels = 128
let labels = Array.init max_labels (fun _ -> Atomic.make "")

let set_label tid label =
  if tid >= 0 && tid < max_labels then Atomic.set labels.(tid) label

let clear_label tid = set_label tid ""

let label_pairs () =
  let rec go i acc =
    if i < 0 then acc
    else
      let l = Atomic.get labels.(i) in
      go (i - 1) (if l = "" then acc else (i, l) :: acc)
  in
  go (max_labels - 1) []

(* ------------------------------------------------------------------ *)

type sample = {
  sm_stack : Printexc.raw_backtrace;  (* the handling domain's stack *)
  sm_labels : (int * string) list;  (* (tid, phase) for busy workers *)
}

type t = {
  mode : mode;
  hz : int;
  max_samples : int;
  (* Sample fields are touched only by the signal handler and by [stop]
     after the handler is uninstalled — both on domain 0 — so they need
     no lock (and must not take one: a handler blocking on a mutex its
     own domain holds would deadlock). *)
  mutable samples : sample list;  (* newest first *)
  mutable n_samples : int;
  mutable ticks : int;
  mutable dropped : int;
  (* Allocation-rate sampler: a Gc alarm may fire on any domain, so its
     points are mutex-guarded. The signal handler never touches them. *)
  alloc_mutex : Mutex.t;
  mutable alloc_points : (float * float) list;  (* (monotonic s, cum words) *)
  mutable alarm : Gc.alarm option;
  mutable prev_handler : Sys.signal_behavior option;
  mutable running : bool;
  start_ns : int64;
  mutable stop_ns : int64;
  start_cpu_ns : int64;
  mutable stop_cpu_ns : int64;
  start_words : float;
  mutable stop_words : float;
}

(* The interval timer and signal disposition are process-global, so at
   most one profiler runs at a time. *)
let active : t option ref = ref None

let allocated_words () =
  let st = Gc.quick_stat () in
  st.Gc.minor_words +. st.Gc.major_words -. st.Gc.promoted_words

let signal_of_mode = function Cpu -> Sys.sigprof | Wall -> Sys.sigalrm
let itimer_of_mode = function Cpu -> Unix.ITIMER_PROF | Wall -> Unix.ITIMER_REAL

let tick t _signo =
  if t.running then begin
    t.ticks <- t.ticks + 1;
    if t.n_samples >= t.max_samples then t.dropped <- t.dropped + 1
    else begin
      let sm =
        { sm_stack = Printexc.get_callstack 48; sm_labels = label_pairs () }
      in
      t.samples <- sm :: t.samples;
      t.n_samples <- t.n_samples + 1
    end
  end

let gc_alarm t () =
  let point = (Clock.now (), allocated_words ()) in
  Mutex.lock t.alloc_mutex;
  t.alloc_points <- point :: t.alloc_points;
  Mutex.unlock t.alloc_mutex

let start ?(hz = 97) ?(mode = Cpu) ?(max_samples = 200_000) () =
  if hz <= 0 || hz > 10_000 then
    invalid_arg "Profiler.start: hz must be in 1..10000";
  (match !active with
   | Some _ -> invalid_arg "Profiler.start: a profiler is already running"
   | None -> ());
  let t =
    {
      mode;
      hz;
      max_samples;
      samples = [];
      n_samples = 0;
      ticks = 0;
      dropped = 0;
      alloc_mutex = Mutex.create ();
      alloc_points = [];
      alarm = None;
      prev_handler = None;
      running = true;
      start_ns = Clock.now_ns ();
      stop_ns = 0L;
      start_cpu_ns = cputime_ns ();
      stop_cpu_ns = 0L;
      start_words = allocated_words ();
      stop_words = 0.0;
    }
  in
  active := Some t;
  t.alarm <- Some (Gc.create_alarm (gc_alarm t));
  t.prev_handler <-
    Some (Sys.signal (signal_of_mode mode) (Sys.Signal_handle (tick t)));
  let interval = 1.0 /. float_of_int hz in
  ignore
    (Unix.setitimer (itimer_of_mode mode)
       { Unix.it_interval = interval; it_value = interval });
  t

let stop t =
  if t.running then begin
    (* Disarm the timer before restoring the handler, so no tick arrives
       for a disposition we no longer own. A signal already queued runs
       the previous handler — [t.running] also gates the tick body. *)
    ignore
      (Unix.setitimer (itimer_of_mode t.mode)
         { Unix.it_interval = 0.0; it_value = 0.0 });
    (match t.prev_handler with
     | Some h -> Sys.set_signal (signal_of_mode t.mode) h
     | None -> ());
    (match t.alarm with Some a -> Gc.delete_alarm a | None -> ());
    t.running <- false;
    t.stop_ns <- Clock.now_ns ();
    t.stop_cpu_ns <- cputime_ns ();
    t.stop_words <- allocated_words ();
    active := None
  end

let ticks t = t.ticks
let sample_count t = t.n_samples
let dropped t = t.dropped

(* ------------------------------------------------------------------ *)
(* Folded-stack output (Brendan Gregg's flamegraph input format):
   "frame;frame;...;frame count", root first. Frame names are sanitized
   because space and semicolon are the format's delimiters. *)

let sanitize_frame s =
  String.map (fun c -> match c with ' ' -> '_' | ';' -> ':' | c -> c) s

(* The innermost frames are the sampler itself ([tick] calling
   [get_callstack]); they are dropped so every row ends in the code that
   was interrupted. *)
let own_frame = String.starts_with ~prefix:(__MODULE__ ^ ".")

let frames_of_stack bt =
  match Printexc.backtrace_slots bt with
  | None -> [ "[no-debug-info]" ]
  | Some slots ->
    let names =
      Array.to_list slots
      |> List.filter_map (fun slot ->
             match Printexc.Slot.name slot with
             | Some n -> Some (sanitize_frame n)
             | None -> (
               match Printexc.Slot.location slot with
               | Some l ->
                 Some
                   (sanitize_frame
                      (Printf.sprintf "%s:%d" l.Printexc.filename
                         l.Printexc.line_number))
               | None -> None))
    in
    let rec drop_own = function
      | n :: rest when own_frame n -> drop_own rest
      | l -> l
    in
    match drop_own names with [] -> [ "[unknown]" ] | names -> names

let folded t =
  let tbl = Hashtbl.create 64 in
  let bump key =
    Hashtbl.replace tbl key
      (1 + Option.value (Hashtbl.find_opt tbl key) ~default:0)
  in
  List.iter
    (fun sm ->
      (* get_callstack yields innermost first; folded wants root first. *)
      bump ("main;" ^ String.concat ";" (List.rev (frames_of_stack sm.sm_stack)));
      List.iter
        (fun (tid, label) ->
          bump (Printf.sprintf "worker-%d;%s" tid (sanitize_frame label)))
        sm.sm_labels)
    t.samples;
  let rows = Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] in
  let rows = List.sort compare rows in
  let buf = Buffer.create 1024 in
  List.iter (fun (k, v) -> Printf.bprintf buf "%s %d\n" k v) rows;
  Buffer.contents buf

let write_folded t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (folded t))

let summary t =
  let stop_ns = if t.stop_ns = 0L then Clock.now_ns () else t.stop_ns in
  let stop_cpu = if t.stop_cpu_ns = 0L then cputime_ns () else t.stop_cpu_ns in
  let stop_words = if t.running then allocated_words () else t.stop_words in
  let wall_s = Int64.to_float (Int64.sub stop_ns t.start_ns) *. 1e-9 in
  let cpu_s = Int64.to_float (Int64.sub stop_cpu t.start_cpu_ns) *. 1e-9 in
  let words = stop_words -. t.start_words in
  Mutex.lock t.alloc_mutex;
  let gc_points = List.length t.alloc_points in
  Mutex.unlock t.alloc_mutex;
  Json.Obj
    [
      ("mode", Json.String (mode_name t.mode));
      ("hz", Json.Int t.hz);
      ("ticks", Json.Int t.ticks);
      ("samples", Json.Int t.n_samples);
      ("dropped", Json.Int t.dropped);
      ("wall_s", Json.Float wall_s);
      ("cpu_s", Json.Float cpu_s);
      ("alloc_words", Json.Float words);
      ( "alloc_words_per_s",
        Json.Float (if wall_s > 0.0 then words /. wall_s else 0.0) );
      ("gc_major_cycles", Json.Int gc_points);
    ]
