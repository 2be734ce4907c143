open Prete_optics
module Rng = Prete_util.Rng
module Clock = Prete_util.Clock

let epoch_len = int_of_float Hazard.epoch_seconds

type run = {
  fr_fiber : int;
  fr_truth : Hazard.features option;
  fr_onset : int;
  fr_cut_at : int option;
  fr_events : (int * string * float) list;
  fr_alarm : int option;
  fr_alarm_feats : (float * float * int * int) option;
  fr_samples : int;
  fr_dups : int;
  fr_late : int;
  fr_filled : int;
  fr_segments : int;
  fr_cut_segments : int;
}

type walls = { synth_s : float; busy_s : float }

(* A domain streams one fiber at a time, so the trace and the presence
   flags are domain-local and reused by every fiber the domain
   processes.  The trace becomes the dense series in place. *)
type buffers = { trace : float array; present : bool array }

let buffers_key =
  Domain.DLS.new_key (fun () ->
      { trace = Array.make epoch_len 0.0; present = Array.make epoch_len false })

let process ~detector ~impairments ~topo ~rng ~fb ~truth ~cut =
  let b = Domain.DLS.get buffers_key in
  (* Draw order per fiber is part of the determinism contract: trace
     seed, then (degrading fibers) onset offset, then the arrivals. *)
  let trace_seed = Rng.int rng 1_000_000 in
  let baseline = Telemetry.baseline_loss topo fb in
  let onset, cut_at =
    match truth with
    | None -> (-1, None)
    | Some (tr : Hazard.features) ->
      let dur = int_of_float (Float.ceil tr.Hazard.duration_s) in
      let seg_len = max 1 (min dur (epoch_len - 120)) in
      let span = epoch_len - 120 - seg_len in
      let onset = 60 + if span > 0 then Rng.int rng span else 0 in
      (onset, if cut then Some (onset + seg_len) else None)
  in
  let ts = Clock.now () in
  Telemetry.synthesize_into ~seed:trace_seed ~baseline
    ~healthy_s:(if onset < 0 then epoch_len else onset)
    ?degradation:truth ?cut_at_s:cut_at b.trace;
  let synth_s = Clock.elapsed_since ts in
  (* The list path's reorder ring, in one pass.  Its horizon is
     [max_delay], so every copy of sample t lands by tick t + max_delay,
     before t is finalized: nothing is late, a second copy is a
     duplicate carrying the value already admitted, and the finalized
     series is the gap fill over the timestamps that arrived. *)
  let t0 = Clock.now () in
  let present = b.present in
  Array.fill present 0 epoch_len false;
  let arrivals = ref 0 and dups = ref 0 in
  Stream.iter_arrivals rng impairments ~len:epoch_len (fun t _ ->
      incr arrivals;
      if present.(t) then incr dups else present.(t) <- true);
  let len, filled =
    if !arrivals = 0 then (0, 0)
    else (epoch_len, Prete_util.Timeseries.fill_gaps ~present b.trace ~len:epoch_len)
  in
  let det = Detector.create ~config:detector ~baseline () in
  let events = ref [] and alarm = ref None and alarm_feats = ref None in
  let segments = ref 0 and cut_segments = ref 0 in
  Detector.run det b.trace ~len (function
    | Detector.Degr_start t ->
      events := (t, "degr_seen", float_of_int (t - onset)) :: !events
    | Detector.Alarm { at; score } ->
      events := (at, "alarm", score) :: !events;
      if !alarm = None then begin
        alarm := Some at;
        alarm_feats := Detector.current_features det
      end
    | Detector.Segment_end seg ->
      incr segments;
      if seg.Detector.seg_cut then incr cut_segments;
      events := (seg.Detector.seg_end, "segment_end", seg.Detector.seg_degree) :: !events);
  ( {
      fr_fiber = fb;
      fr_truth = truth;
      fr_onset = onset;
      fr_cut_at = cut_at;
      fr_events = List.rev !events;
      fr_alarm = !alarm;
      fr_alarm_feats = !alarm_feats;
      fr_samples = !arrivals;
      fr_dups = !dups;
      fr_late = 0;
      fr_filled = filled;
      fr_segments = !segments;
      fr_cut_segments = !cut_segments;
    },
    { synth_s; busy_s = Clock.elapsed_since t0 } )

let record ~base ~ev fr registries =
  if fr.fr_onset >= 0 then ev (base + fr.fr_onset) "degr_true" fr.fr_fiber 0.0;
  List.iter (fun (t, kind, v) -> ev (base + t) kind fr.fr_fiber v) fr.fr_events;
  Option.iter (fun c -> ev (base + c) "cut" fr.fr_fiber 0.0) fr.fr_cut_at;
  List.iter
    (fun m ->
      Metrics.incr ~by:fr.fr_samples m "samples";
      Metrics.incr ~by:fr.fr_dups m "dups";
      Metrics.incr ~by:fr.fr_late m "late";
      Metrics.incr ~by:fr.fr_filled m "gaps_filled";
      Metrics.incr ~by:fr.fr_segments m "segments";
      Metrics.incr ~by:fr.fr_cut_segments m "cut_segments")
    registries

let alarm_batches ~base runs =
  let rec group = function
    | [] -> []
    | (t, fr) :: rest ->
      let same, later = List.partition (fun (t', _) -> t' = t) rest in
      (t, fr :: List.map snd same) :: group later
  in
  List.filter_map (fun fr -> Option.map (fun a -> (base + a, fr)) fr.fr_alarm) runs
  |> List.stable_sort (fun (a, _) (b, _) -> compare a b)
  |> group

let silent_cuts ~base ~ev metrics (s : Prete.Simulate.Internal.epoch_sample) =
  List.iter
    (fun fb ->
      if not (List.mem_assoc fb s.Prete.Simulate.Internal.es_degraded) then begin
        ev base "cut_silent" fb 0.0;
        Metrics.incr metrics "silent_cuts"
      end)
    s.Prete.Simulate.Internal.es_cuts
