let check_nonempty name xs =
  if Array.length xs = 0 then invalid_arg (name ^ ": empty array")

let sum = Array.fold_left ( +. ) 0.0

let mean xs =
  check_nonempty "Stats.mean" xs;
  sum xs /. float_of_int (Array.length xs)

let variance xs =
  check_nonempty "Stats.variance" xs;
  let n = Array.length xs in
  if n = 1 then 0.0
  else
    let m = mean xs in
    let ss = Array.fold_left (fun a x -> a +. ((x -. m) *. (x -. m))) 0.0 xs in
    ss /. float_of_int (n - 1)

let std xs = sqrt (variance xs)

let percentile xs p =
  check_nonempty "Stats.percentile" xs;
  if p < 0.0 || p > 100.0 then invalid_arg "Stats.percentile: p in [0,100]";
  let sorted = Array.copy xs in
  Array.sort compare sorted;
  let n = Array.length sorted in
  let rank = p /. 100.0 *. float_of_int (n - 1) in
  let lo = int_of_float (Float.floor rank) in
  let hi = int_of_float (Float.ceil rank) in
  if lo = hi then sorted.(lo)
  else
    let w = rank -. float_of_int lo in
    ((1.0 -. w) *. sorted.(lo)) +. (w *. sorted.(hi))

let median xs = percentile xs 50.0

let min_max xs =
  check_nonempty "Stats.min_max" xs;
  Array.fold_left
    (fun (lo, hi) x -> (Float.min lo x, Float.max hi x))
    (xs.(0), xs.(0))
    xs

let ecdf xs =
  check_nonempty "Stats.ecdf" xs;
  let sorted = Array.copy xs in
  Array.sort compare sorted;
  let n = float_of_int (Array.length sorted) in
  Array.mapi (fun i v -> (v, float_of_int (i + 1) /. n)) sorted

let cdf_at xs v =
  check_nonempty "Stats.cdf_at" xs;
  let c = Array.fold_left (fun a x -> if x <= v then a + 1 else a) 0 xs in
  float_of_int c /. float_of_int (Array.length xs)

let equal_width_bins ~bins ~lo ~hi v =
  if bins <= 0 then invalid_arg "Stats.equal_width_bins: bins must be positive";
  if hi <= lo then 0
  else
    let idx = int_of_float ((v -. lo) /. (hi -. lo) *. float_of_int bins) in
    max 0 (min (bins - 1) idx)

let histogram ~bins xs =
  check_nonempty "Stats.histogram" xs;
  if bins <= 0 then invalid_arg "Stats.histogram: bins must be positive";
  let lo, hi = min_max xs in
  let counts = Array.make bins 0 in
  Array.iter
    (fun x ->
      let i = equal_width_bins ~bins ~lo ~hi x in
      counts.(i) <- counts.(i) + 1)
    xs;
  let width = if hi > lo then (hi -. lo) /. float_of_int bins else 1.0 in
  Array.mapi
    (fun i c ->
      let l = lo +. (float_of_int i *. width) in
      (l, l +. width, c))
    counts

let pearson xs ys =
  if Array.length xs <> Array.length ys then
    invalid_arg "Stats.pearson: length mismatch";
  check_nonempty "Stats.pearson" xs;
  let mx = mean xs and my = mean ys in
  let num = ref 0.0 and dx = ref 0.0 and dy = ref 0.0 in
  Array.iteri
    (fun i x ->
      let a = x -. mx and b = ys.(i) -. my in
      num := !num +. (a *. b);
      dx := !dx +. (a *. a);
      dy := !dy +. (b *. b))
    xs;
  if !dx = 0.0 || !dy = 0.0 then 0.0 else !num /. sqrt (!dx *. !dy)

let linear_fit xs ys =
  if Array.length xs <> Array.length ys then
    invalid_arg "Stats.linear_fit: length mismatch";
  check_nonempty "Stats.linear_fit" xs;
  let mx = mean xs and my = mean ys in
  let num = ref 0.0 and den = ref 0.0 in
  Array.iteri
    (fun i x ->
      let a = x -. mx in
      num := !num +. (a *. (ys.(i) -. my));
      den := !den +. (a *. a))
    xs;
  let slope = if !den = 0.0 then 0.0 else !num /. !den in
  (slope, my -. (slope *. mx))

let normalize xs =
  check_nonempty "Stats.normalize" xs;
  let lo, hi = min_max xs in
  if hi = lo then Array.make (Array.length xs) 0.0
  else Array.map (fun x -> (x -. lo) /. (hi -. lo)) xs
