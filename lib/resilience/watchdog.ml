module Clock = Accals_telemetry.Clock

type t = { started : float; budget : float option }

let start budget = { started = Clock.now (); budget }

let unlimited = { started = 0.0; budget = None }

let elapsed t = Clock.now () -. t.started

let expired t =
  match t.budget with None -> false | Some b -> elapsed t >= b

let remaining t =
  match t.budget with
  | None -> None
  | Some b -> Some (Float.max 0.0 (b -. elapsed t))
