type event = {
  ev_name : string;
  ev_cat : string;
  ev_ts : int64;  (* absolute monotonic ns *)
  ev_dur : int64 option;  (* ns; [None] for an instant *)
  ev_tid : int;
  ev_args : (string * Json.t) list;
}

type t = {
  epoch : int64;
  mutex : Mutex.t;
  mutable events : event list;  (* newest first *)
}

let tid_key = Domain.DLS.new_key (fun () -> 0)
let set_tid tid = Domain.DLS.set tid_key tid
let current_tid () = Domain.DLS.get tid_key

let create () =
  { epoch = Clock.now_ns (); mutex = Mutex.create (); events = [] }

let record t ?(cat = "") ?(args = []) ?tid ?dur_ns ~start_ns name =
  let ev =
    {
      ev_name = name;
      ev_cat = cat;
      ev_ts = start_ns;
      ev_dur = Option.map (Int64.max 0L) dur_ns;
      ev_tid = (match tid with Some tid -> tid | None -> current_tid ());
      ev_args = args;
    }
  in
  Mutex.protect t.mutex (fun () -> t.events <- ev :: t.events)

let with_span t ?cat ?args name f =
  let start_ns = Clock.now_ns () and tid = current_tid () in
  Fun.protect
    ~finally:(fun () ->
      record t ?cat ?args ~tid
        ~dur_ns:(Int64.sub (Clock.now_ns ()) start_ns)
        ~start_ns name)
    f

let instant t ?cat ?args name =
  record t ?cat ?args ~start_ns:(Clock.now_ns ()) name

let events t = List.rev (Mutex.protect t.mutex (fun () -> t.events))
let event_count t = Mutex.protect t.mutex (fun () -> List.length t.events)
let event_name ev = ev.ev_name
let event_tid ev = ev.ev_tid

let add t ~lane evs =
  let moved = List.map (fun ev -> { ev with ev_tid = lane ev }) evs in
  Mutex.protect t.mutex (fun () -> t.events <- List.rev_append moved t.events)

let default_lane_name tid =
  if tid = 0 then "main" else Printf.sprintf "worker-%d" tid

let pid = lazy (Unix.getpid ())

(* The only Chrome trace-event encoder in the tree: every trace file and
   every trace response is this function's output. *)
let export ?origin_ns ?pid:pid_override
    ?(lane_name = default_lane_name) t =
  let origin = Option.value origin_ns ~default:t.epoch in
  let pid = Json.Int (Option.value pid_override ~default:(Lazy.force pid)) in
  let evs =
    List.stable_sort (fun a b -> Int64.compare a.ev_ts b.ev_ts) (events t)
  in
  let tids = List.sort_uniq compare (0 :: List.map event_tid evs) in
  let meta tid =
    Json.Obj
      [
        ("name", Json.String "thread_name");
        ("ph", Json.String "M");
        ("pid", pid);
        ("tid", Json.Int tid);
        ("args", Json.Obj [ ("name", Json.String (lane_name tid)) ]);
      ]
  in
  let us ns = Json.Float (Clock.ns_to_us ns) in
  let ev_json ev =
    Json.Obj
      ([
         ("name", Json.String ev.ev_name);
         ("ph", Json.String (if ev.ev_dur = None then "i" else "X"));
         ("ts", us (Int64.sub ev.ev_ts origin));
         ("pid", pid);
         ("tid", Json.Int ev.ev_tid);
       ]
      @ (if ev.ev_cat = "" then [] else [ ("cat", Json.String ev.ev_cat) ])
      @ (match ev.ev_dur with
         | Some d -> [ ("dur", us d) ]
         | None -> [ ("s", Json.String "t") ])
      @ if ev.ev_args = [] then [] else [ ("args", Json.Obj ev.ev_args) ])
  in
  List.map meta tids @ List.map ev_json evs

let to_json t = Json.List (export t)
let write t path = Json.write_file path (to_json t)
