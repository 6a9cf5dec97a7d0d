module Bitvec = Accals_bitvec.Bitvec
module Crc32 = Accals_resilience.Crc32
module Metric = Accals_metrics.Metric
open Accals_network

type divergence = {
  backend : string;
  nodes : int list;
  fp_reference : string;
  fp_observed : string;
  recorded_error : float;
  reference_error : float;
}

type verdict = Clean | Divergence of divergence

let max_reported_nodes = 8

let fingerprint ~live ~sigs n =
  let crc = ref Crc32.init in
  for id = 0 to n - 1 do
    if live.(id) then begin
      crc := Crc32.add_int !crc id;
      if id < Array.length sigs && Bitvec.length sigs.(id) > 0 then
        crc := Bitvec.fold_words sigs.(id) ~init:!crc ~f:Crc32.add_int
    end
  done;
  Crc32.to_hex (Crc32.finish !crc)

let compare ~net ~patterns ~golden ~metric ~recorded_error ~backend
    ~observed:(obs_live, obs_sigs) =
  let live = Structure.live_set net in
  let order = Structure.topo_order ~live net in
  let sigs = Sim.run ~live net patterns ~order in
  let approx = Array.map (fun id -> sigs.(id)) (Network.outputs net) in
  let reference_error = Metric.measure metric ~golden ~approx in
  let n = Network.num_nodes net in
  let error_diverges = not (Float.equal reference_error recorded_error) in
  let diverging = ref [] in
  let count = ref 0 in
  for id = 0 to n - 1 do
    let ref_live = live.(id) in
    let ob_live = id < Array.length obs_live && obs_live.(id) in
    let diverges =
      if ref_live && ob_live then not (Bitvec.equal sigs.(id) obs_sigs.(id))
      else ref_live <> ob_live
    in
    if diverges then begin
      incr count;
      if !count <= max_reported_nodes then diverging := id :: !diverging
    end
  done;
  if !count = 0 && not error_diverges then Clean
  else
    Divergence
      {
        backend;
        nodes = List.rev !diverging;
        fp_reference = fingerprint ~live ~sigs n;
        fp_observed =
          fingerprint ~live:obs_live ~sigs:obs_sigs
            (min n (Array.length obs_live));
        recorded_error;
        reference_error;
      }
