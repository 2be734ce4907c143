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

let check_config d =
  let bad fmt = Printf.ksprintf invalid_arg fmt in
  let alpha = d.ewma_alpha in
  if not (alpha > 0.0 && alpha <= 1.0) then bad "--ewma-alpha must be in (0, 1] (got %g)" alpha;
  let finite name x = if not (Float.is_finite x) then bad "%s must be finite (got %g)" name x in
  (* NaN fails the comparison, so it is rejected too. *)
  let nonneg name x = if not (x >= 0.0) then bad "%s must be non-negative (got %g)" name x in
  (* A NaN drift allowance makes every CUSUM score NaN, and an infinite
     alarm level is never reached: no alarm ever. *)
  finite "--cusum-k" d.cusum_k;
  nonneg "--cusum-h" d.cusum_h;
  finite "--cusum-h" d.cusum_h;
  (* The thresholds have no flag; only a replayed dump can set them. *)
  finite "degr_threshold" d.degr_threshold;
  finite "cut_threshold" d.cut_threshold;
  finite "fluct_threshold" d.fluct_threshold;
  if d.degr_threshold > d.cut_threshold then
    bad "degr_threshold must not exceed cut_threshold (got %g > %g)" d.degr_threshold
      d.cut_threshold;
  nonneg "fluct_threshold" d.fluct_threshold

let create ?(config = default_config) ~baseline () =
  check_config config;
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

(* [Float.max 0.0 s] bit for bit: +0.0 for -0.0 and every s <= 0, s
   itself for NaN (which fails the comparison). *)
let[@inline] clamp0 s = if s <= 0.0 then 0.0 else s

(* The common case, a run of healthy samples with no segment open, in
   one loop that calls nothing, so the EWMA and CUSUM state stay in
   registers (OCaml saves every register across a call, so a call
   anywhere in a loop sends them through memory on every sample).  From
   sample [from] on, consume samples while they are healthy and would
   raise no alarm; return the first sample not consumed, which [scan]
   steps in full — [quiet] leaves the state as it was before that
   sample.
   A NaN sample, baseline, drift allowance or step, or a NaN state at
   entry, is left to [step_at] too.  Held in registers, the additions
   may take their operands in another order than [step_at]'s, and when
   both operands are NaN the result carries the first one's payload.
   Past those checks every NaN the loop can meet is the machine's
   default one, made here from infinities, so the order cannot show. *)
let quiet t src ~from ~len =
  let lv = t.lv and baseline = t.baseline and alarmed = t.alarmed in
  let cut_thr = t.cfg.cut_threshold
  and degr_thr = t.cfg.degr_threshold
  and k = t.cfg.cusum_k
  and h = t.cfg.cusum_h
  and alpha = t.cfg.ewma_alpha in
  let score = ref lv.score and est = ref lv.est in
  let i = ref from in
  let go =
    ref
      (not
         (Float.is_nan baseline || Float.is_nan k || Float.is_nan alpha
         || Float.is_nan !score || Float.is_nan !est))
  in
  while !go && !i < len do
    let v = src.(!i) in
    let d = v -. baseline in
    if d >= cut_thr || d >= degr_thr || Float.is_nan v then go := false
    else begin
      let s = clamp0 (!score +. (v -. !est -. k)) in
      if s >= h && not alarmed then go := false
      else begin
        score := s;
        est := !est +. (alpha *. (v -. !est));
        incr i
      end
    end
  done;
  lv.score <- !score;
  lv.est <- !est;
  !i

(* One sample, every case.  Its events go to [emit] in occurrence order
   once the whole step is done, so [emit] sees the detector's post-step
   state.  The thresholds and comparison sense are Telemetry.classify's,
   against the configured (true) baseline. *)
let step_at t ~at v emit =
  let cfg = t.cfg and lv = t.lv and baseline = t.baseline in
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
      let acc = Online.acc_create ~fluct_threshold:cfg.fluct_threshold ~baseline () in
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
    lv.score <- clamp0 (lv.score +. (v -. lv.est -. cfg.cusum_k));
    lv.est <- lv.est +. (cfg.ewma_alpha *. (v -. lv.est));
    let alarm = lv.score >= cfg.cusum_h && not t.alarmed in
    if alarm then t.alarmed <- true;
    (match closed with Some seg -> emit (Segment_end seg) | None -> ());
    if alarm then emit (Alarm { at; score = lv.score })
  end

(* Samples [src.(0)] .. [src.(len - 1)] at timestamps [at0], [at0 + 1],
   ...; values are read from the array, not passed in, so a step
   allocates nothing unless an event fires.  Runs of quiet samples go
   through [quiet], one call per run; the rest, one [step_at] each. *)
let scan t src ~len ~at0 emit =
  let i = ref 0 in
  while !i < len do
    if t.seg == None then i := quiet t src ~from:!i ~len;
    if !i < len then begin
      step_at t ~at:(at0 + !i) src.(!i) emit;
      incr i
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
