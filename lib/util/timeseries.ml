type sample = { t : float; v : float }

(* One forward pass: each present sample fills the gap behind it (the
   leading gap takes its value, an interior gap the lerp from the
   previous present sample), and the trailing gap takes the last one. *)
let fill_gaps ~present (xs : float array) ~len =
  let prev = ref (-1) and seen = ref 0 in
  for i = 0 to len - 1 do
    if present.(i) then begin
      let v1 = xs.(i) and i0 = !prev in
      if i0 < 0 then
        for j = 0 to i - 1 do
          xs.(j) <- v1
        done
      else if i > i0 + 1 then begin
        let v0 = xs.(i0) and span = float_of_int (i - i0) in
        for j = i0 + 1 to i - 1 do
          let w = float_of_int (j - i0) /. span in
          xs.(j) <- ((1.0 -. w) *. v0) +. (w *. v1)
        done
      end;
      prev := i;
      incr seen
    end
  done;
  let last = !prev in
  if last < 0 then begin
    if len > 0 then invalid_arg "Timeseries.fill_gaps: no samples present";
    0
  end
  else begin
    let v = xs.(last) in
    for j = last + 1 to len - 1 do
      xs.(j) <- v
    done;
    len - !seen
  end

let interpolate_missing xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Timeseries.interpolate_missing: empty";
  if Array.for_all Option.is_none xs then
    invalid_arg "Timeseries.interpolate_missing: no samples present";
  let out = Array.map (Option.value ~default:0.0) xs in
  ignore (fill_gaps ~present:(Array.map Option.is_some xs) out ~len:n);
  out

let degree ~baseline seg =
  Array.fold_left (fun acc v -> Float.max acc (v -. baseline)) 0.0 seg

let mean_abs_gradient seg =
  let n = Array.length seg in
  if n < 2 then 0.0
  else begin
    let acc = ref 0.0 in
    for i = 1 to n - 1 do
      acc := !acc +. Float.abs (seg.(i) -. seg.(i - 1))
    done;
    !acc /. float_of_int (n - 1)
  end

let fluctuation_count ?(threshold = 0.01) seg =
  let n = Array.length seg in
  let count = ref 0 in
  for i = 1 to n - 1 do
    if Float.abs (seg.(i) -. seg.(i - 1)) > threshold then incr count
  done;
  !count

let downsample ~period xs =
  if period <= 0 then invalid_arg "Timeseries.downsample: period must be positive";
  let n = Array.length xs in
  let m = (n + period - 1) / period in
  Array.init m (fun k ->
      let i = k * period in
      { t = float_of_int i; v = xs.(i) })

let max_over_windows ~period xs =
  if period <= 0 then invalid_arg "Timeseries.max_over_windows: period must be positive";
  let n = Array.length xs in
  let m = (n + period - 1) / period in
  Array.init m (fun k ->
      let lo = k * period in
      let hi = min n (lo + period) in
      let acc = ref xs.(lo) in
      for i = lo + 1 to hi - 1 do
        acc := Float.max !acc xs.(i)
      done;
      !acc)

let moving_average ~window xs =
  if window < 1 then invalid_arg "Timeseries.moving_average: window >= 1";
  let n = Array.length xs in
  let half = window / 2 in
  Array.init n (fun i ->
      let lo = max 0 (i - half) and hi = min (n - 1) (i + half) in
      let acc = ref 0.0 in
      for j = lo to hi do
        acc := !acc +. xs.(j)
      done;
      !acc /. float_of_int (hi - lo + 1))
