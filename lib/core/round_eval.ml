open Accals_network
open Accals_lac
module Metric = Accals_metrics.Metric
module Estimator = Accals_esterr.Estimator
module Sigdb = Accals_sigdb.Sigdb
module Bitvec = Accals_bitvec.Bitvec

(* Round evaluation over a signature database attached to the working
   circuit. Every evaluation applies its LACs to the working circuit under
   the database's undo journal, measures the error from a cone-only overlay
   resimulation and undoes the journal; every commit applies the LACs for
   real, resimulates the changed cones in place and refreshes the per-round
   views.

   The one setting is how long the database lives. Persistent (the
   incremental level) keeps the database and the estimator across rounds,
   the estimator refreshed from the database's change delta. Per-round (the
   rebuild level) detaches the previous database at [begin_round] and
   attaches a fresh one with a fresh estimator, so every round starts from
   one full simulation; this is also what a divergence or memory descent
   falls back to.

   Both settings are bit-identical observable-for-observable: same applied
   / skipped partitions (the acyclicity guard sees the same network
   states), same error floats (overlay cone evaluation produces the same
   output bitvectors as a from-scratch simulation), same committed circuits
   (re-applying the applied sublist reproduces the evaluated circuit,
   including fresh node ids). Only the resimulation counters differ — they
   report the work actually done. The copy-and-resimulate reference lives
   in the tests as an oracle for both. *)

(* The attached database with its estimator and the counter marks taken
   against them: a fresh attachment starts every mark at zero. *)
type attached = {
  db : Sigdb.t;
  est : Estimator.t;
  mutable evals_mark : int;
  mutable hits_mark : int;  (* estimator cone-cache hit mark *)
  mutable misses_mark : int;
  mutable nodes_mark : int;
  mutable conv_mark : int;
  mutable rec_mark : int;
  mutable undo_mark : int;  (* sigdb journal undo mark *)
  mutable jent_mark : int;  (* sigdb journal entries-undone mark *)
}

type t = {
  current : Network.t ref;
  patterns : Sim.patterns;
  golden : Bitvec.t array;
  metric : Metric.kind;
  mutable persistent : bool;
  mutable attached : attached option;
}

type aux = {
  cache_hits : int;
  cache_misses : int;
  journal_undos : int;
  journal_entries : int;
}

let create ~incremental ~current ~patterns ~golden ~metric =
  { current; patterns; golden; metric; persistent = incremental; attached = None }

let live_noninput ctx =
  Array.fold_left
    (fun acc id ->
      if Network.is_input ctx.Round_ctx.net id then acc else acc + 1)
    0 ctx.Round_ctx.order

let attached_exn t =
  match t.attached with
  | Some a -> a
  | None -> invalid_arg "Round_eval: no round started"

let sort_by_delta lacs =
  List.sort (fun a b -> compare a.Lac.delta_error b.Lac.delta_error) lacs

(* The database's tracker must come off the network before another can
   attach, and before the database is abandoned. *)
let detach t =
  Option.iter (fun a -> Sigdb.detach a.db) t.attached;
  t.attached <- None

let attach t =
  let db = Sigdb.create !(t.current) t.patterns in
  let ctx = Round_ctx.of_sigdb db in
  let est = Estimator.create ctx ~golden:t.golden ~metric:t.metric in
  (* The initial full simulation inside [Sigdb.create] is real work;
     surface it through the same counter as the cone evaluations. *)
  let c = Sigdb.counters db in
  c.Sigdb.resim_nodes <- c.Sigdb.resim_nodes + live_noninput ctx;
  let a =
    {
      db;
      est;
      evals_mark = 0;
      hits_mark = 0;
      misses_mark = 0;
      nodes_mark = 0;
      conv_mark = 0;
      rec_mark = 0;
      undo_mark = 0;
      jent_mark = 0;
    }
  in
  t.attached <- Some a;
  a

(* The views are replaced wholesale at every refresh, so a view sized
   differently from the network it describes can only mean the database
   missed a change event — the watermark anomaly that forces an immediate
   audit. *)
let watermark_ok t =
  match t.attached with
  | Some a -> Array.length (Sigdb.live_view a.db) = Network.num_nodes !(t.current)
  | None -> true

(* From here on every round gets a fresh database. The current one is
   abandoned at once, so a database the audit caught diverging is never
   read again and its memory is released now. *)
let degrade_to_rebuild t =
  t.persistent <- false;
  detach t

let audit t ~recorded_error =
  let a = attached_exn t in
  Accals_audit.Shadow.compare ~net:!(t.current) ~patterns:t.patterns
    ~golden:t.golden ~metric:t.metric ~recorded_error
    ~backend:(if t.persistent then "incremental" else "rebuild")
    ~observed:(Sigdb.live_view a.db, Sigdb.sigs_view a.db)

let corrupt_for_selftest t = Sigdb.corrupt_signature (attached_exn t).db

(* ------------------------------------------------------------------ *)

let begin_round t =
  let a =
    match t.attached with
    | Some a when t.persistent -> a
    | _ ->
      detach t;
      attach t
  in
  (Round_ctx.of_sigdb a.db, a.est)

let take_evaluations t =
  let a = attached_exn t in
  let now = Estimator.evaluations a.est in
  let delta = now - a.evals_mark in
  a.evals_mark <- now;
  delta

let take_counters t =
  let a = attached_exn t in
  let c = Sigdb.counters a.db in
  let nodes = c.Sigdb.resim_nodes - a.nodes_mark in
  let conv = c.Sigdb.resim_converged - a.conv_mark in
  let recycled = c.Sigdb.buffers_recycled - a.rec_mark in
  a.nodes_mark <- c.Sigdb.resim_nodes;
  a.conv_mark <- c.Sigdb.resim_converged;
  a.rec_mark <- c.Sigdb.buffers_recycled;
  (nodes, conv, recycled)

let take_aux t =
  let a = attached_exn t in
  let hits, misses = Estimator.cache_stats a.est in
  let c = Sigdb.counters a.db in
  let aux =
    {
      cache_hits = hits - a.hits_mark;
      cache_misses = misses - a.misses_mark;
      journal_undos = c.Sigdb.journal_undos - a.undo_mark;
      journal_entries = c.Sigdb.journal_entries_undone - a.jent_mark;
    }
  in
  a.hits_mark <- hits;
  a.misses_mark <- misses;
  a.undo_mark <- c.Sigdb.journal_undos;
  a.jent_mark <- c.Sigdb.journal_entries_undone;
  aux

(* ------------------------------------------------------------------ *)
(* Memory-governor hooks.

   [aux_bytes] is the footprint of the discardable derived state — the
   estimator's cone cache and the signature database's idle buffer pool.
   [relieve_memory] gives exactly that state back: both stores are rebuilt
   on demand from the per-round views, so dropping them costs time but
   cannot change scores, tie-breaks or committed circuits. A per-round
   database is itself discardable between rounds, so it goes too. Round
   boundary only (a parallel [Estimator.score] reads the cone cache
   concurrently). *)

let aux_bytes t =
  match t.attached with
  | Some a -> Estimator.cone_cache_bytes a.est + Sigdb.pool_bytes a.db
  | None -> 0

let relieve_memory t =
  match t.attached with
  | None -> (0, 0)
  | Some a ->
    let relief = (Estimator.drop_cone_cache a.est, Sigdb.trim_pool a.db) in
    if not t.persistent then detach t;
    relief

(* ------------------------------------------------------------------ *)
(* Speculative evaluation *)

let measure_outputs t approx =
  Metric.measure t.metric ~golden:t.golden ~approx

(* Evaluate a LAC set (applied in ascending estimated-error order, as the
   engine always has) against the working circuit without committing it:
   returns the applied and skipped partitions and the exact-on-samples
   error of the would-be circuit, before any cleanup. *)
let eval_set t lacs =
  let db = (attached_exn t).db in
  Sigdb.begin_journal db;
  let applied, skipped = Lac.apply_many !(t.current) (sort_by_delta lacs) in
  let e = Sigdb.with_journal_outputs db (measure_outputs t) in
  Sigdb.undo_journal db;
  (applied, skipped, e)

(* Try the scored LACs in order until one applies without closing a cycle;
   return it with the exact-on-samples error of the would-be circuit. The
   working circuit is left unchanged. *)
let eval_single t scored =
  let db = (attached_exn t).db in
  let rec try_apply = function
    | [] -> None
    | lac :: rest -> (
      (* [Lac.apply] leaves the network untouched when it raises [Cycle]
         (the guard precedes every mutation), so consecutive attempts can
         share one journal. *)
      match Lac.apply !(t.current) lac with
      | () ->
        let e = Sigdb.with_journal_outputs db (measure_outputs t) in
        Some (lac, e)
      | exception Network.Cycle _ -> try_apply rest)
  in
  Sigdb.begin_journal db;
  let result = try_apply scored in
  Sigdb.undo_journal db;
  result

(* Evaluate a LAC set the way the AMOSA baseline scores states: apply,
   sweep, then measure both error and area of the cleaned-up circuit —
   still without committing anything. *)
let probe t lacs =
  let db = (attached_exn t).db in
  Sigdb.begin_journal db;
  let applied, _skipped = Lac.apply_many !(t.current) (sort_by_delta lacs) in
  Cleanup.sweep !(t.current);
  let e = Sigdb.with_journal_outputs db (measure_outputs t) in
  let area = Cost.area !(t.current) in
  Sigdb.undo_journal db;
  (applied, e, area)

(* ------------------------------------------------------------------ *)
(* Commits *)

(* Resimulate the committed change, sweep, and refresh the views. Only a
   persistent estimator is refreshed: a per-round one is replaced at the
   next [begin_round] anyway. *)
let refresh t a =
  Sigdb.resimulate a.db;
  Cleanup.sweep !(t.current);
  let delta = Sigdb.refresh a.db in
  if t.persistent then
    Estimator.refresh a.est (Round_ctx.of_sigdb a.db)
      ~sig_changed:delta.Sigdb.sig_changed
      ~struct_dirty:delta.Sigdb.struct_dirty

(* Commit the applied sublist a prior [eval_set] returned. Re-applying it
   reproduces the evaluated circuit exactly: the skipped LACs never mutated
   anything, so each applied LAC meets the same intermediate network (and
   the same node-id watermark) as during evaluation. *)
let commit_set t applied =
  let a = attached_exn t in
  let applied', _ = Lac.apply_many !(t.current) applied in
  assert (List.length applied' = List.length applied);
  refresh t a

let commit_single t lac =
  let a = attached_exn t in
  Lac.apply !(t.current) lac;
  refresh t a
