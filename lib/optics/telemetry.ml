open Prete_util

type state = Healthy | Degraded | Cut

let degradation_threshold = 3.0
let cut_threshold = 10.0

let baseline_loss topo fid =
  let f = Prete_net.Topology.fiber topo fid in
  (* Amplified line systems keep end-to-end loss modest; scale mildly with
     span length so fibers are distinguishable in plots. *)
  15.0 +. (f.Prete_net.Topology.length_km /. 500.0)

let classify ~baseline v =
  let d = v -. baseline in
  if d >= cut_threshold then Cut
  else if d >= degradation_threshold then Degraded
  else Healthy

type trace = { t0 : float; samples : float array; baseline : float }

let synthesize_into ?(seed = 3) ~baseline ~healthy_s ?degradation ?cut_at_s samples =
  let total_s = Array.length samples in
  if total_s <= 0 || healthy_s < 0 || healthy_s > total_s then
    invalid_arg "Telemetry.synthesize: bad segment lengths";
  (match cut_at_s with
  | Some c when c < 0 || c > total_s -> invalid_arg "Telemetry.synthesize: bad cut time"
  | _ -> ());
  let rng = Rng.create seed in
  Rng.fill_gaussian rng samples ~pos:0 ~len:total_s ~mean:baseline ~sd:0.02;
  (match degradation with
  | None -> ()
  | Some f ->
    let d_start = healthy_s in
    let d_len =
      let by_features = int_of_float (Float.ceil f.Hazard.duration_s) in
      let until_cut =
        match cut_at_s with Some c -> c - d_start | None -> total_s - d_start
      in
      max 1 (min by_features until_cut)
    in
    (* Degraded loss wanders around baseline + degree with excursions of
       the event's gradient scale; inject [fluctuation] larger swings. *)
    let level = f.Hazard.degree in
    for i = d_start to min (total_s - 1) (d_start + d_len - 1) do
      let wiggle = f.Hazard.gradient *. Rng.gaussian rng in
      samples.(i) <- baseline +. level +. wiggle +. (0.02 *. Rng.gaussian rng)
    done;
    let swings = f.Hazard.fluctuation in
    for _ = 1 to swings do
      let i = d_start + Rng.int rng (max 1 d_len) in
      if i < total_s then
        samples.(i) <- samples.(i) +. Rng.uniform rng (-1.5) 1.5
    done);
  match cut_at_s with
  | None -> ()
  | Some c ->
    Rng.fill_gaussian rng samples ~pos:c ~len:(total_s - c)
      ~mean:(baseline +. cut_threshold +. 8.0) ~sd:0.02

let synthesize ?seed ~baseline ~healthy_s ?degradation ?cut_at_s ~total_s () =
  let samples = Array.make (max 0 total_s) 0.0 in
  synthesize_into ?seed ~baseline ~healthy_s ?degradation ?cut_at_s samples;
  { t0 = 0.0; samples; baseline }

let states tr = Array.map (classify ~baseline:tr.baseline) tr.samples

let observed_states ~granularity_s tr =
  if granularity_s <= 0 then invalid_arg "Telemetry.observed_states: granularity";
  let obs = Timeseries.downsample ~period:granularity_s tr.samples in
  Array.map
    (fun { Timeseries.t; v } -> (tr.t0 +. t, classify ~baseline:tr.baseline v))
    obs

let degradation_visible ~granularity_s tr =
  let obs = observed_states ~granularity_s tr in
  let rec scan i =
    if i >= Array.length obs then false
    else
      match snd obs.(i) with
      | Degraded -> true
      | Cut -> false
      | Healthy -> scan (i + 1)
  in
  scan 0

type fault =
  | Dropout of { start_s : int; len_s : int }
  | Stuck of { start_s : int; len_s : int }
  | Burst of { start_s : int; len_s : int; amp : float }

let corrupt ?(seed = 11) faults tr =
  let rng = Rng.create seed in
  let n = Array.length tr.samples in
  let samples = Array.copy tr.samples in
  let window start_s len_s =
    let lo = max 0 start_s in
    let hi = min (n - 1) (start_s + len_s - 1) in
    (lo, hi)
  in
  List.iter
    (fun fault ->
      match fault with
      | Dropout { start_s; len_s } ->
        let lo, hi = window start_s len_s in
        for i = lo to hi do
          (* No reading: downstream consumers see a clean baseline. *)
          samples.(i) <- tr.baseline
        done
      | Stuck { start_s; len_s } ->
        let lo, hi = window start_s len_s in
        let held = if lo > 0 then samples.(lo - 1) else tr.baseline in
        for i = lo to hi do
          samples.(i) <- held
        done
      | Burst { start_s; len_s; amp } ->
        let lo, hi = window start_s len_s in
        for i = lo to hi do
          samples.(i) <- samples.(i) +. (amp *. Rng.gaussian rng)
        done)
    faults;
  { tr with samples }

let coverage_occurrence ?(seed = 5) ~granularity_s ds =
  if granularity_s <= 0 then invalid_arg "Telemetry.coverage_occurrence: granularity";
  let rng = Rng.create seed in
  let g = float_of_int granularity_s in
  let detected = ref 0 in
  Array.iter
    (fun (d : Dataset.degradation) ->
      if d.Dataset.led_to_cut then begin
        (* The degradation is observable from its start until the cut (or
           its own end, whichever is first); the poller's phase is
           uniform in [0, g). *)
        let window =
          Float.min d.Dataset.features.Hazard.duration_s d.Dataset.gap_to_cut_s
        in
        let phase = Rng.uniform rng 0.0 g in
        (* A poll lands in [0, window) iff phase < window (mod g). *)
        let hits =
          if window >= g then true
          else
            phase < window
        in
        if hits then incr detected
      end)
    ds.Dataset.degradations;
  let n_cuts = Array.length ds.Dataset.cuts in
  let n_degr = Array.length ds.Dataset.degradations in
  let coverage = if n_cuts = 0 then 0.0 else float_of_int !detected /. float_of_int n_cuts in
  let occurrence =
    if n_degr = 0 then 0.0 else float_of_int !detected /. float_of_int n_degr
  in
  (coverage, occurrence)
