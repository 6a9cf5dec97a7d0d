(* Order statistics over float samples. *)

let sorted xs = List.sort compare xs |> Array.of_list

(* Linear interpolation between closest ranks; [q] in [0, 1]. *)
let quantile q xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.quantile: no samples"
  else if n = 1 then a.(0)
  else begin
    let pos = q *. float_of_int (n - 1) in
    let lo = truncate pos in
    let hi = min (n - 1) (lo + 1) in
    let frac = pos -. float_of_int lo in
    a.(lo) +. (frac *. (a.(hi) -. a.(lo)))
  end

let median xs = quantile 0.5 xs

let sum xs = List.fold_left ( +. ) 0.0 xs

let mean xs =
  match xs with
  | [] -> invalid_arg "Stats.mean: no samples"
  | _ -> sum xs /. float_of_int (List.length xs)

let geomean xs =
  match xs with
  | [] -> invalid_arg "Stats.geomean: no samples"
  | _ ->
    exp (sum (List.map log xs) /. float_of_int (List.length xs))

(* [part / whole], or 0 when nothing was attempted. *)
let ratio part whole = if whole = 0.0 then 0.0 else part /. whole
