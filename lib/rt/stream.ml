type impairments = {
  gap_rate : float;
  dup_rate : float;
  reorder_rate : float;
  max_delay : int;
}

let default_impairments =
  { gap_rate = 0.02; dup_rate = 0.01; reorder_rate = 0.05; max_delay = 3 }

let check_impairments imp =
  let rate name p =
    if not (p >= 0.0 && p <= 1.0) then
      invalid_arg (Printf.sprintf "impairments: %s must be in [0, 1] (got %g)" name p)
  in
  rate "gap_rate" imp.gap_rate;
  rate "dup_rate" imp.dup_rate;
  rate "reorder_rate" imp.reorder_rate;
  if imp.max_delay < 0 then
    invalid_arg
      (Printf.sprintf "impairments: max_delay must be non-negative (got %d)" imp.max_delay)

type arrival = { a_tick : int; a_t : int; a_v : float }

(* Draw order per sample: gap, then the delivery's delay, then the
   duplicate coin and the copy's delay.  [f] takes integers alone: a
   float argument to a closure would be boxed. *)
let iter_arrivals rng imp ~len f =
  check_impairments imp;
  let delay () =
    if imp.max_delay > 0 && Prete_util.Rng.bernoulli rng imp.reorder_rate then
      1 + Prete_util.Rng.int rng imp.max_delay
    else 0
  in
  for t = 0 to len - 1 do
    if not (Prete_util.Rng.bernoulli rng imp.gap_rate) then begin
      f t (delay ());
      if Prete_util.Rng.bernoulli rng imp.dup_rate then f t (delay ())
    end
  done

let schedule rng imp (tr : Prete_optics.Telemetry.trace) =
  let samples = tr.Prete_optics.Telemetry.samples in
  let out = ref [] in
  iter_arrivals rng imp ~len:(Array.length samples) (fun t d ->
      out := { a_tick = t + d; a_t = t; a_v = samples.(t) } :: !out);
  List.rev !out
