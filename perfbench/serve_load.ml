(* The serve-mix workload: an [accals serve] daemon in its own process,
   driven by this process over two connections in a closed loop (each
   connection sends its next request only after the previous answer).

   A pass submits seeded small random circuits as inline BLIF:
   - [cold] distinct circuits once each (computed, then written to the
     daemon's result cache), shared between the two connections;
   - [pairs] circuits submitted by both connections at the same moment,
     so the second submission coalesces onto the first;
   - [hits] resubmissions of the pass's circuits, answered from the
     cache. A hit's result is fetched straight after the submit says
     [cached]; only cold jobs poll [status], every [poll_s] seconds.
   Every job is timed from sending its submit to receiving its result. *)

open Accals_network
module Json = Accals_telemetry.Json
module Clock = Accals_telemetry.Clock
module Metric = Accals_metrics.Metric
module Blif = Accals_io.Blif
module Client = Accals_server.Client
module Protocol = Accals_server.Protocol
module Random_logic = Accals_circuits.Random_logic
module Engine = Accals.Engine
module Config = Accals.Config

let cold = 4
let pairs = 2
let hits = 120
let poll_s = 0.005
let bound = 0.05
let samples = 2048

(* -- inputs ---------------------------------------------------------------- *)

type circuit = { net : Network.t; text : string; spec : Protocol.job_spec }

(* Every pass submits the same six small random circuits; what makes a
   pass's jobs new to the daemon is their job seed, derived from the
   workload seed and the pass. With a fresh circuit set per seed, five
   seeds spread the pass time and ADP by 0.27 and 0.17 of their medians;
   the circuits' size, not the seed, should set the request path's cost. *)
let shapes =
  lazy
    (Array.init (cold + pairs) (fun i ->
         let net =
           Random_logic.make
             ~name:(Printf.sprintf "mix%d" i)
             ~inputs:10 ~outputs:6 ~gates:(60 + (i * 15)) ~seed:(7000 + i)
         in
         (net, Blif.to_string net)))

let job_seed ~seed ~pass = (seed * 1000) + pass

let pass_circuits ~seed ~pass =
  Array.map
    (fun (net, text) ->
      {
        net;
        text;
        spec =
          {
            Protocol.source = Protocol.Blif_text text;
            metric = Metric.Error_rate;
            bound;
            budget = None;
            deadline = None;
            priority = 0;
            tenant = "perfbench";
            samples = Some samples;
            seed = job_seed ~seed ~pass;
            trace_id = None;
            client_ts = None;
          };
      })
    (Lazy.force shapes)

(* -- the daemon process ---------------------------------------------------- *)

type daemon = { pid : int; socket : string; stderr_path : string }

let daemon_binary = ref "_build/default/bin/main.exe"

(* [OCAMLRUNPARAM=v=0x400] makes the daemon print its GC totals when it
   exits; {!gc_totals} reads them back. *)
let spawn ~dir ~index =
  let socket = Filename.concat dir (Printf.sprintf "d%d.sock" index) in
  let cache = Filename.concat dir (Printf.sprintf "cache%d" index) in
  let stderr_path = Filename.concat dir (Printf.sprintf "d%d.err" index) in
  let env =
    Array.append
      (Array.of_list
         (List.filter
            (fun kv -> not (String.starts_with ~prefix:"OCAMLRUNPARAM=" kv))
            (Array.to_list (Unix.environment ()))))
      [| "OCAMLRUNPARAM=v=0x400" |]
  in
  let err = Unix.openfile stderr_path [ O_WRONLY; O_CREAT; O_TRUNC ] 0o644 in
  let null = Unix.openfile "/dev/null" [ O_RDWR ] 0 in
  let pid =
    Unix.create_process_env !daemon_binary
      [|
        !daemon_binary; "serve"; "--socket"; socket; "--jobs"; "2";
        "--max-concurrent"; "2"; "--cache-dir"; cache; "--quiet";
      |]
      env null null err
  in
  Unix.close err;
  Unix.close null;
  { pid; socket; stderr_path }

let live = ref []

let kill_all () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    !live;
  live := []

(* Start a daemon and return it with the seconds from spawn to the first
   answered ping. *)
let start ~dir ~index =
  let t0 = Clock.now () in
  let d = spawn ~dir ~index in
  live := d.pid :: !live;
  let rec wait_ping () =
    if Clock.now () -. t0 > 60.0 then failwith "daemon did not answer a ping"
    else
      match Client.connect_unix d.socket with
      | exception Unix.Unix_error _ ->
        Unix.sleepf 0.0002;
        wait_ping ()
      | c ->
        let ok = Client.ping c in
        Client.close c;
        if ok then Clock.now () -. t0
        else begin
          Unix.sleepf 0.0002;
          wait_ping ()
        end
  in
  let setup_s = wait_ping () in
  (d, setup_s)

let stop d =
  (match Client.connect_unix d.socket with
   | c ->
     ignore (Client.rpc c Protocol.Shutdown);
     Client.close c
   | exception Unix.Unix_error _ -> ());
  let deadline = Clock.now () +. 60.0 in
  let rec reap () =
    match Unix.waitpid [ WNOHANG ] d.pid with
    | 0, _ when Clock.now () < deadline ->
      Unix.sleepf 0.01;
      reap ()
    | 0, _ ->
      Unix.kill d.pid Sys.sigkill;
      ignore (Unix.waitpid [] d.pid);
      false
    | _, Unix.WEXITED 0 -> true
    | _ -> false
  in
  let clean = reap () in
  live := List.filter (fun p -> p <> d.pid) !live;
  clean

(* utime + stime of the daemon, seconds (Linux [/proc], 100 ticks/s). *)
let cpu_s d =
  let line =
    In_channel.with_open_text (Printf.sprintf "/proc/%d/stat" d.pid)
      In_channel.input_all
  in
  (* Fields after the parenthesised command name, which may hold spaces. *)
  let rest =
    String.sub line (String.rindex line ')' + 2)
      (String.length line - String.rindex line ')' - 2)
  in
  let f = Array.of_list (String.split_on_char ' ' rest) in
  (* utime and stime are fields 14 and 15 of the whole line. *)
  float_of_string f.(11) +. float_of_string f.(12) |> fun ticks -> ticks /. 100.0

(* [(allocated words, top heap words)] from the exit statistics. *)
let gc_totals d =
  let lines =
    In_channel.with_open_text d.stderr_path In_channel.input_all
    |> String.split_on_char '\n'
  in
  let field name =
    List.find_map
      (fun l ->
        match String.split_on_char ':' l with
        | [ k; v ] when String.trim k = name ->
          float_of_string_opt (String.trim v)
        | _ -> None)
      lines
  in
  match (field "allocated_words", field "top_heap_words") with
  | Some a, Some h -> Some (a, h)
  | _ -> None

(* -- the client side ------------------------------------------------------- *)

type kind = Cold | Pair | Hit

type job = {
  index : int;  (** circuit index within the pass *)
  kind : kind;
  latency_ms : float;
  submit_rtt_ms : float;
  cached : bool;
  coalesced : bool;
  response : (Json.t, string) result;  (** the final [result] response *)
}

let str k j = Option.bind (Json.member k j) Json.string_opt
let bool k j = match Json.member k j with Some (Json.Bool b) -> b | _ -> false
let num k j = Option.bind (Json.member k j) Json.number_opt

let terminal = function
  | Some ("done" | "failed" | "cancelled" | "deadline_exceeded") -> true
  | _ -> false

let run_job ?spans conn ~index ~kind (c : circuit) =
  let rpc name req =
    match spans with
    | Some s -> Spans.with_span s name (fun () -> Client.rpc conn req)
    | None -> Client.rpc conn req
  in
  let t0 = Clock.now () in
  let job ~submit_rtt ~cached ~coalesced response =
    {
      index;
      kind;
      latency_ms = (Clock.now () -. t0) *. 1000.0;
      submit_rtt_ms = submit_rtt *. 1000.0;
      cached;
      coalesced;
      response;
    }
  in
  match rpc "server.submit" (Protocol.Submit c.spec) with
  | Error e ->
    job ~submit_rtt:0.0 ~cached:false ~coalesced:false (Error e)
  | Ok r when not (Client.ok r) ->
    job ~submit_rtt:0.0 ~cached:false ~coalesced:false
      (Error
         (Printf.sprintf "%s: %s"
            (Option.value (Client.error_code r) ~default:"error")
            (Client.error_message r)))
  | Ok r ->
    let submit_rtt = Clock.now () -. t0 in
    let id = Option.value (str "job" r) ~default:"" in
    let cached = bool "cached" r and coalesced = bool "coalesced" r in
    let rec settle () =
      match rpc "server.status" (Protocol.Status id) with
      | Ok s when terminal (str "state" s) -> Ok ()
      | Ok s when Client.ok s ->
        Unix.sleepf poll_s;
        settle ()
      | Ok s -> Error (Client.error_message s)
      | Error e -> Error e
    in
    let settled = if cached then Ok () else settle () in
    let response =
      match settled with
      | Error e -> Error e
      | Ok () -> rpc "server.result" (Protocol.Result id)
    in
    job ~submit_rtt ~cached ~coalesced response

(* Two-party barrier for the paired submissions. *)
type barrier = {
  m : Mutex.t;
  cv : Condition.t;
  mutable waiting : int;
  mutable generation : int;
}

let barrier () =
  { m = Mutex.create (); cv = Condition.create (); waiting = 0; generation = 0 }

let meet b =
  Mutex.protect b.m (fun () ->
      let gen = b.generation in
      b.waiting <- b.waiting + 1;
      if b.waiting = 2 then begin
        b.waiting <- 0;
        b.generation <- gen + 1;
        Condition.broadcast b.cv
      end
      else
        while b.generation = gen do
          Condition.wait b.cv b.m
        done)

type pass = { wall_s : float; cpu_s : float; jobs : job list }

(* One pass over two connections; the second one runs on its own thread.
   A thread, not a domain: the client then has one OCaml heap, so its
   garbage collections never stop the other connection mid-request. *)
let run_pass ?spans d ~seed ~pass =
  let circuits = pass_circuits ~seed ~pass in
  let cold_next = Atomic.make 0 and hit_next = Atomic.make 0 in
  let b = barrier () in
  let worker w () =
    let spans = Option.map (fun a -> a.(w)) spans in
    let conn = Client.connect_unix d.socket in
    let out = ref [] in
    let record j = out := j :: !out in
    let rec drain next limit f =
      let i = Atomic.fetch_and_add next 1 in
      if i < limit then begin
        record (f i);
        drain next limit f
      end
    in
    drain cold_next cold (fun i -> run_job ?spans conn ~index:i ~kind:Cold circuits.(i));
    meet b;
    for p = 0 to pairs - 1 do
      meet b;
      record (run_job ?spans conn ~index:(cold + p) ~kind:Pair circuits.(cold + p))
    done;
    meet b;
    drain hit_next hits (fun i ->
        let index = i mod Array.length circuits in
        run_job ?spans conn ~index ~kind:Hit circuits.(index));
    Client.close conn;
    !out
  in
  let cpu0 = cpu_s d in
  let t0 = Clock.now () in
  let theirs = ref [] in
  let other = Thread.create (fun () -> theirs := worker 1 ()) () in
  let mine = worker 0 () in
  Thread.join other;
  let theirs = !theirs in
  let wall_s = Clock.now () -. t0 in
  { wall_s; cpu_s = cpu_s d -. cpu0; jobs = mine @ theirs }

(* -- correctness ----------------------------------------------------------- *)

(* The daemon's engine configuration for a spec (see [Server]'s worker). *)
let one_shot (c : circuit) =
  let net = Blif.parse_string c.text in
  let base =
    { Config.default with Config.samples; seed = c.spec.Protocol.seed; jobs = 1 }
  in
  let config = Config.for_network ~base net in
  let patterns =
    Sim.for_network ~seed:config.Config.seed ~count:config.Config.samples
      ~exhaustive_limit:config.Config.exhaustive_limit net
  in
  let report =
    Engine.run ~config ~patterns net ~metric:c.spec.Protocol.metric
      ~error_bound:c.spec.Protocol.bound
  in
  let engine_exhaustive =
    Array.length (Network.inputs net) <= config.Config.exhaustive_limit
  in
  (report, Checks.check ~seed:c.spec.Protocol.seed ~patterns ~engine_exhaustive report)

(* Check every job of a pass against a one-shot [Engine.run] on the same
   input; returns the number of failed jobs and the first one's reason. *)
let check_pass ~seed ~pass (p : pass) =
  let circuits = pass_circuits ~seed ~pass in
  let expected =
    Array.map
      (fun c ->
        let report, outcome = one_shot c in
        (Blif.to_string report.Engine.approximate, report, outcome))
      circuits
  in
  let fails = ref 0 and why = ref "" in
  let fail msg =
    incr fails;
    if !why = "" then why := msg
  in
  List.iter
    (fun j ->
      let blif, report, outcome = expected.(j.index) in
      match j.response with
      | Error e -> fail ("job failed: " ^ e)
      | Ok r ->
        if str "state" r <> Some "done" then
          fail ("job ended " ^ Option.value (str "state" r) ~default:"?")
        else if bool "degraded" r then fail "job degraded"
        else if str "blif" r <> Some blif then
          fail "result differs from a one-shot Engine.run"
        else if
          Option.bind (Json.member "report" r) (num "error")
          <> Some report.Engine.error
        then fail "reported error differs from a one-shot Engine.run"
        else if not outcome.Checks.ok then fail outcome.Checks.why)
    p.jobs;
  let expected_jobs = cold + (2 * pairs) + hits in
  if List.length p.jobs <> expected_jobs then
    fail
      (Printf.sprintf "%d of %d jobs answered" (List.length p.jobs)
         expected_jobs);
  (!fails, !why)
