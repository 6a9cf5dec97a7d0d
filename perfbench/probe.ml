(* Wall, CPU and GC deltas around one call. The GC counters come from
   [Gc.quick_stat], which OCaml 5 sums over every domain, so a
   multi-domain pool's allocation is included. *)

module Clock = Accals_telemetry.Clock

type sample = {
  wall_s : float;
  cpu_s : float;
  alloc_words : float;  (** minor words plus words allocated directly major *)
  minor_words : float;
  major_words : float;  (** direct-major words (promotions excluded) *)
  minor_gcs : int;
  major_gcs : int;
  top_heap_words : int;  (** process peak of the major heap at the end *)
}

let measure f =
  let g0 = Gc.quick_stat () in
  let c0 = Clock.cpu () in
  let t0 = Clock.now () in
  let r = f () in
  let t1 = Clock.now () in
  let c1 = Clock.cpu () in
  let g1 = Gc.quick_stat () in
  let direct (g : Gc.stat) = g.Gc.major_words -. g.Gc.promoted_words in
  let minor_words = g1.Gc.minor_words -. g0.Gc.minor_words in
  let major_words = direct g1 -. direct g0 in
  ( r,
    {
      wall_s = t1 -. t0;
      cpu_s = c1 -. c0;
      alloc_words = minor_words +. major_words;
      minor_words;
      major_words;
      minor_gcs = g1.Gc.minor_collections - g0.Gc.minor_collections;
      major_gcs = g1.Gc.major_collections - g0.Gc.major_collections;
      top_heap_words = g1.Gc.top_heap_words;
    } )

let heap_mb words = float_of_int (words * (Sys.word_size / 8)) /. 1048576.0
