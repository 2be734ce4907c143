type config = {
  ewma_alpha : float;
  cusum_k : float;
  cusum_h : float;
  fluct_threshold : float;
  degr_threshold : float;
  cut_threshold : float;
}

let default_config =
  {
    ewma_alpha = 0.05;
    cusum_k = 0.5;
    cusum_h = 4.0;
    fluct_threshold = 0.01;
    degr_threshold = Prete_optics.Telemetry.degradation_threshold;
    cut_threshold = Prete_optics.Telemetry.cut_threshold;
  }

type segment = {
  seg_start : int;
  seg_end : int;
  seg_degree : float;
  seg_gradient : float;
  seg_fluctuation : int;
  seg_duration_s : int;
  seg_cut : bool;
}

type event =
  | Degr_start of int
  | Alarm of { at : int; score : float }
  | Segment_end of segment

(* The tracker state lives in an all-float record, stored flat, so an
   update writes a float in place instead of allocating a box. *)
type level = {
  mutable est : float;  (* EWMA estimate of the healthy level *)
  mutable score : float;  (* one-sided CUSUM *)
}

type t = {
  cfg : config;
  baseline : float;
  lv : level;
  mutable seg : (int * Online.acc) option;  (* open segment: start, features *)
  mutable alarmed : bool;  (* an alarm fired this episode *)
}

let create ?(config = default_config) ~baseline () =
  { cfg = config; baseline; lv = { est = baseline; score = 0.0 }; seg = None; alarmed = false }

let close_segment t ~at ~cut =
  match t.seg with
  | None -> None
  | Some (start, acc) ->
    let seg =
      {
        seg_start = start;
        seg_end = at;
        seg_degree = Online.degree acc;
        seg_gradient = Online.mean_abs_gradient acc;
        seg_fluctuation = Online.fluctuation_count acc;
        seg_duration_s = Online.acc_count acc;
        seg_cut = cut;
      }
    in
    t.seg <- None;
    t.lv.score <- 0.0;
    t.alarmed <- false;
    Some seg

(* Samples [src.(0)] .. [src.(len - 1)] at timestamps [at0], [at0 + 1],
   ...; values are read from the array, not passed in, so a step
   allocates nothing unless an event fires.  A step's events go to
   [emit] in occurrence order once the whole step is done, so [emit]
   sees the detector's post-step state.  The thresholds and comparison
   sense are Telemetry.classify's, against the configured (true)
   baseline. *)
let scan t src ~len ~at0 emit =
  let cfg = t.cfg and lv = t.lv and baseline = t.baseline in
  for i = 0 to len - 1 do
    let at = at0 + i in
    let v = src.(i) in
    let d = v -. baseline in
    if d >= cfg.cut_threshold then begin
      (* The cut sample itself is not part of the degraded segment (the
         offline segmentation stops at the last Degraded sample). *)
      match close_segment t ~at ~cut:true with
      | Some seg -> emit (Segment_end seg)
      | None -> ()
    end
    else if d >= cfg.degr_threshold then begin
      match t.seg with
      | Some (_, acc) -> Online.acc_add acc v
      | None ->
        let acc =
          Online.acc_create ~fluct_threshold:cfg.fluct_threshold ~baseline ()
        in
        Online.acc_add acc v;
        t.seg <- Some (at, acc);
        let alarm = not t.alarmed in
        if alarm then t.alarmed <- true;
        emit (Degr_start at);
        if alarm then emit (Alarm { at; score = lv.score })
    end
    else begin
      let closed = close_segment t ~at ~cut:false in
      (* CUSUM on the EWMA-debiased excess: catches slow ramps that sit
         below the +3 dB step classifier. *)
      lv.score <- Float.max 0.0 (lv.score +. (v -. lv.est -. cfg.cusum_k));
      lv.est <- lv.est +. (cfg.ewma_alpha *. (v -. lv.est));
      let alarm = lv.score >= cfg.cusum_h && not t.alarmed in
      if alarm then t.alarmed <- true;
      (match closed with Some seg -> emit (Segment_end seg) | None -> ());
      if alarm then emit (Alarm { at; score = lv.score })
    end
  done

let step t ~at ~v =
  let events = ref [] in
  scan t [| v |] ~len:1 ~at0:at (fun e -> events := e :: !events);
  List.rev !events

let run t series ~len emit = scan t series ~len ~at0:0 emit

let in_segment t = t.seg <> None
let cusum_score t = t.lv.score
let baseline_estimate t = t.lv.est

let current_features t =
  match t.seg with
  | None -> None
  | Some (_, acc) ->
    Some
      ( Online.degree acc,
        Online.mean_abs_gradient acc,
        Online.fluctuation_count acc,
        Online.acc_count acc )
