type site = Open | Write | Rename | Fsync | Task | Audit
type kind = Raise | Stall of float | Enospc | Emfile | Short | Corrupt
type sel = At of int * int | Every of { seed : int; k : int }
type clause = { site : site; kind : kind; sel : sel }
type spec = { attempts : int; clauses : clause list }

exception Injected of { batch : int; index : int; attempt : int }

let () =
  Printexc.register_printer (function
    | Injected { batch; index; attempt } ->
      Some
        (Printf.sprintf "Fault.Injected (batch %d, task %d, attempt %d)" batch
           index attempt)
    | _ -> None)

(* The site table. The syscall indices are hashed into %K decisions, so
   open = 0, write = 1, rename = 2, fsync = 3 are fixed. *)
let sites =
  [|
    ("open", Open); ("write", Write); ("rename", Rename); ("fsync", Fsync);
    ("task", Task); ("audit", Audit);
  |]

let site_index = function
  | Open -> 0
  | Write -> 1
  | Rename -> 2
  | Fsync -> 3
  | Task -> 4
  | Audit -> 5

(* --- Parsing -------------------------------------------------------- *)

let split_at s i =
  (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))

let parse_kind site s =
  match (site, s) with
  | Task, "raise" -> Ok Raise
  | Task, _ when String.starts_with ~prefix:"stall=" s -> (
    match float_of_string_opt (String.sub s 6 (String.length s - 6)) with
    | Some f when f >= 0.0 && Float.is_finite f -> Ok (Stall f)
    | _ -> Error (Printf.sprintf "stall expects seconds >= 0, got %S" s))
  | (Open | Write | Rename | Fsync), "enospc" -> Ok Enospc
  | (Open | Write | Rename | Fsync), "emfile" -> Ok Emfile
  | (Open | Write | Rename | Fsync), "short" -> Ok Short
  | Audit, "corrupt" -> Ok Corrupt
  | _ -> Error (Printf.sprintf "unknown fault kind %S for this site" s)

(* [seed] is filled in once the whole spec is read: it may follow the
   clause. *)
let parse_sel site sigil s =
  match (sigil, site) with
  | '@', Task ->
    Error "task clauses select with %K (keyed on batch and index, not order)"
  | '%', Audit -> Error "audit clauses select rounds with @N or @N..M"
  | '@', _ -> (
    let range =
      match String.index_opt s '.' with
      | Some i when i + 1 < String.length s && s.[i + 1] = '.' ->
        (String.sub s 0 i, String.sub s (i + 2) (String.length s - i - 2))
      | _ -> (s, s)
    in
    match (int_of_string_opt (fst range), int_of_string_opt (snd range)) with
    | Some lo, Some hi when lo >= 1 && hi >= lo -> Ok (At (lo, hi))
    | _ ->
      Error (Printf.sprintf "bad occurrence %S (want N or N..M, 1-based)" s))
  | _ -> (
    match int_of_string_opt s with
    | Some k when k >= 1 -> Ok (Every { seed = 0; k })
    | _ -> Error (Printf.sprintf "bad period %S (want K >= 1)" s))

let parse_clause site rest =
  match (String.index_opt rest '@', String.index_opt rest '%') with
  | None, None -> Error "a fault clause needs @N, @N..M or %K after the kind"
  | a, b ->
    let first = Option.value ~default:max_int in
    let i = min (first a) (first b) in
    let kind_s, sel_s = split_at rest i in
    Result.bind (parse_kind site kind_s) (fun kind ->
        Result.map
          (fun sel -> { site; kind; sel })
          (parse_sel site rest.[i] sel_s))

let parse s =
  let fields =
    String.split_on_char ',' (String.trim s)
    |> List.map String.trim
    |> List.filter (fun f -> f <> "")
  in
  let rec go seed attempts clauses = function
    | [] -> Ok (seed, attempts, List.rev clauses)
    | f :: rest -> (
      let err msg = Error (Printf.sprintf "%s: %s" f msg) in
      match String.index_opt f ':' with
      | None -> err "expected seed:N, attempts:N or SITE:KIND@N|%K"
      | Some i -> (
        let key, value = split_at f i in
        match (key, int_of_string_opt value) with
        | "seed", Some n -> go (Some n) attempts clauses rest
        | "attempts", Some n when n >= 1 -> go seed n clauses rest
        | "seed", _ -> err "seed expects an integer"
        | "attempts", _ -> err "attempts expects an integer >= 1"
        | _ -> (
          match Array.find_opt (fun (name, _) -> name = key) sites with
          | None -> err "unknown fault site"
          | Some (_, site) -> (
            match parse_clause site value with
            | Ok c -> go seed attempts (c :: clauses) rest
            | Error msg -> err msg))))
  in
  match go None 1 [] fields with
  | Error _ as e -> e
  | Ok (_, _, []) -> Error "spec has no fault clauses"
  | Ok (seed, attempts, clauses) -> (
    let keyed =
      List.exists
        (fun c -> match c.sel with Every _ -> true | At _ -> false)
        clauses
    in
    match seed with
    | None when keyed -> Error "%K clauses require a seed:N field"
    | _ ->
      let seed = Option.value seed ~default:0 in
      let stamp c =
        match c.sel with
        | Every { k; _ } -> { c with sel = Every { seed; k } }
        | At _ -> c
      in
      Ok { attempts; clauses = List.map stamp clauses })

(* --- Armed state ---------------------------------------------------- *)

(* The clauses of each site are grouped once, at arm time. *)
type armed = { spec : spec; by_site : clause list array }

let group spec =
  let by_site = Array.make (Array.length sites) [] in
  List.iter
    (fun c ->
      let i = site_index c.site in
      by_site.(i) <- by_site.(i) @ [ c ])
    spec.clauses;
  { spec; by_site }

(* Both variables go through the one parser. A typo'd fault spec silently
   running fault-free would defeat the chaos test it was meant to arm:
   fail loudly at startup instead. *)
let from_env var =
  match Sys.getenv_opt var with
  | None | Some "" -> None
  | Some s -> (
    match parse s with
    | Ok spec -> Some spec
    | Error msg ->
      Printf.eprintf "accals: invalid %s %S: %s\n%!" var s msg;
      exit 2)

let state : armed option Atomic.t =
  Atomic.make
    (match (from_env "ACCALS_FAULTS", from_env "ACCALS_SYSCALL_FAULTS") with
     | None, None -> None
     | Some s, None | None, Some s -> Some (group s)
     | Some a, Some b ->
       let attempts = max a.attempts b.attempts in
       Some (group { attempts; clauses = a.clauses @ b.clauses }))

(* Per-site occurrence counters, 1-based at the point of decision. *)
let counters = Array.init (Array.length sites) (fun _ -> Atomic.make 0)
let injections = Atomic.make 0
let injected_count () = Atomic.get injections

let current () = Option.map (fun a -> a.spec) (Atomic.get state)

let with_spec s f =
  match parse s with
  | Error msg -> invalid_arg (Printf.sprintf "Fault.with_spec %S: %s" s msg)
  | Ok spec ->
    let before = Atomic.get state in
    Array.iter (fun c -> Atomic.set c 0) counters;
    Atomic.set injections 0;
    Atomic.set state (Some (group spec));
    Fun.protect ~finally:(fun () -> Atomic.set state before) f

(* --- Selection ------------------------------------------------------ *)

(* splitmix64 finalizer: a decision depends only on (seed, major, minor). *)
let mix64 x =
  let open Int64 in
  let x = mul (logxor x (shift_right_logical x 30)) 0xBF58476D1CE4E5B9L in
  let x = mul (logxor x (shift_right_logical x 27)) 0x94D049BB133111EBL in
  logxor x (shift_right_logical x 31)

let hit armed site ~major ~minor =
  List.find_opt
    (fun c ->
      match c.sel with
      | At (lo, hi) -> minor >= lo && minor <= hi
      | Every { seed; k } ->
        k <= 1
        ||
        let key =
          Int64.add
            (Int64.mul (Int64.of_int seed) 0x9E3779B97F4A7C15L)
            (Int64.add
               (Int64.mul (Int64.of_int major) 0xD1B54A32D192ED03L)
               (Int64.of_int minor))
        in
        Int64.rem (Int64.shift_right_logical (mix64 key) 1) (Int64.of_int k)
        = 0L)
    armed.by_site.(site_index site)

let fire armed site ~major ~minor =
  match hit armed site ~major ~minor with
  | Some c ->
    Atomic.incr injections;
    Some c.kind
  | None -> None

let batch_counter = Atomic.make 0
let fresh_batch () = Atomic.fetch_and_add batch_counter 1

let check ~batch ~index ~attempt =
  match Atomic.get state with
  | None -> ()
  | Some a when attempt >= a.spec.attempts -> ()
  | Some a -> (
    match fire a Task ~major:batch ~minor:index with
    | Some (Stall seconds) -> if seconds > 0.0 then Unix.sleepf seconds
    | Some _ -> raise (Injected { batch; index; attempt })
    | None -> ())

let corrupts_audit ~round =
  match Atomic.get state with
  | None -> false
  | Some a -> fire a Audit ~major:(site_index Audit) ~minor:round <> None

(* --- Governed I/O --------------------------------------------------- *)

(* Bumps the site's occurrence counter exactly once per governed call,
   when the site has clauses. *)
let syscall site =
  match Atomic.get state with
  | None -> None
  | Some a when a.by_site.(site_index site) = [] -> None
  | Some a ->
    let i = site_index site in
    fire a site ~major:i ~minor:(1 + Atomic.fetch_and_add counters.(i) 1)

let unix_error kind ~syscall ~arg =
  let err = match kind with Emfile -> Unix.EMFILE | _ -> Unix.ENOSPC in
  raise (Unix.Unix_error (err, syscall, arg))

let open_out_bin path =
  match syscall Open with
  | Some kind -> unix_error kind ~syscall:"open" ~arg:path
  | None -> open_out_bin path

let write_faulted kind oc ~emit_prefix =
  if kind = Short then emit_prefix ();
  (* Land the torn prefix before raising, so the file on disk really is
     short — that is the state the recovery path must survive. *)
  (try flush oc with Sys_error _ -> ());
  unix_error kind ~syscall:"write" ~arg:""

let output_string oc s =
  match syscall Write with
  | None -> output_string oc s
  | Some kind ->
    write_faulted kind oc ~emit_prefix:(fun () ->
        output_substring oc s 0 (String.length s / 2))

let output_bytes oc b =
  match syscall Write with
  | None -> output_bytes oc b
  | Some kind ->
    write_faulted kind oc ~emit_prefix:(fun () ->
        output oc b 0 (Bytes.length b / 2))

let fsync fd =
  match syscall Fsync with
  | Some kind -> unix_error kind ~syscall:"fsync" ~arg:""
  | None -> Unix.fsync fd

let rename src dst =
  match syscall Rename with
  | Some kind -> unix_error kind ~syscall:"rename" ~arg:dst
  | None -> Sys.rename src dst
