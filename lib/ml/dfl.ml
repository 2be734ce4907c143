open Prete_optics
module Rng = Prete_util.Rng

(* Keep perturbed/tuned probabilities strictly inside (0, 1): the scenario
   enumeration conditions on the truncated space, and an exact 0 or 1
   collapses outcome probabilities. *)
let clamp01 p = Float.max 1e-4 (Float.min 0.9999 p)

(* ------------------------------------------------------------------ *)
(* TE-loss oracle                                                       *)
(* ------------------------------------------------------------------ *)

module Oracle = struct
  type t = {
    env : Prete.Availability.env;
    scale : float;
    pool : Prete_exec.Pool.t option;
    bases : Prete_lp.Simplex.basis option array;
    mutable anchor : Prete_lp.Simplex.basis option array option;
        (* Snapshot of [bases] after the first (cold) evaluation.  Every
           later call warm-starts from this fixed anchor, never from the
           previous call's final bases: degenerate alternate optima mean
           an evolving warm start can drift to a different optimal vertex
           with a different delivered availability, which would make the
           loss depend on call history.  Anchoring keeps it a pure
           function of the probability vector. *)
    mutable calls : int;
  }

  let create ?pool ?(scale = 2.0) env =
    let n_states =
      Array.length (Prete.Availability.Internal.degradation_states env)
    in
    { env; scale; pool; bases = Array.make n_states None; anchor = None; calls = 0 }

  let dim t = Array.length t.env.Prete.Availability.degr_events
  let events t = t.env.Prete.Availability.degr_events
  let calls t = t.calls

  let availability t probs =
    if Array.length probs <> dim t then
      invalid_arg "Dfl.Oracle: probability vector has wrong dimension";
    t.calls <- t.calls + 1;
    (* A probability vector indexed by fiber IS a PreTE predictor: the
       calibration layer only ever consults the predictor on the env's
       representative degradation event of fiber n, whose [fiber] field
       is n.  The anchored per-state bases turn each evaluation into
       warm re-solves of the first one. *)
    let predictor f = clamp01 probs.(f.Hazard.fiber) in
    let scheme = Prete.Schemes.prete_default ~predictor () in
    let solve () =
      Prete.Availability.availability ?pool:t.pool ~bases:t.bases t.env scheme
        ~scale:t.scale
    in
    (match t.anchor with
    | Some a -> Array.blit a 0 t.bases 0 (Array.length a)
    | None ->
      (* First call: cold solve to capture the anchor, then fall through
         to a warm re-solve so that even this call returns the
         warm-from-anchor value — a cold and a warm solve can settle on
         different degenerate optimal vertices with different delivered
         availability, and mixing the two regimes would make the first
         loss incomparable with every later one. *)
      ignore (solve ());
      let a = Array.copy t.bases in
      t.anchor <- Some a);
    solve ()

  let loss t probs = 1.0 -. availability t probs
end

(* ------------------------------------------------------------------ *)
(* Perturbation-gradient estimator                                      *)
(* ------------------------------------------------------------------ *)

module Estimator = struct
  type method_ = Spsa of { pairs : int } | Fd

  let estimate ?(c = 0.05) ~seed ~method_ ~loss probs =
    let n = Array.length probs in
    if n = 0 then invalid_arg "Dfl.Estimator.estimate: empty vector";
    if c <= 0.0 then invalid_arg "Dfl.Estimator.estimate: c must be positive";
    let g = Array.make n 0.0 in
    (match method_ with
    | Fd ->
      (* Coordinate-wise central differences: 2n loss calls, exact for
         quadratics up to rounding.  The probe stays inside [0, 1] and
         divides by the realized (possibly one-sided) width. *)
      let p = Array.copy probs in
      for i = 0 to n - 1 do
        let save = p.(i) in
        let hi = Float.min 1.0 (save +. c) and lo = Float.max 0.0 (save -. c) in
        p.(i) <- hi;
        let lhi = loss p in
        p.(i) <- lo;
        let llo = loss p in
        p.(i) <- save;
        g.(i) <- (lhi -. llo) /. (hi -. lo)
      done
    | Spsa { pairs } ->
      if pairs <= 0 then invalid_arg "Dfl.Estimator.estimate: pairs must be positive";
      (* Simultaneous perturbation: 2 loss calls per pair regardless of
         dimension.  Each pair's Rademacher direction comes from its own
         pre-split substream, so the estimate is a pure function of
         (seed, pairs, probs) — loss evaluations run one at a time and
         parallelize internally (the oracle fans states out on the
         pool), which is what keeps training bit-identical at any
         domain count. *)
      let master = Rng.create seed in
      let streams = Array.init pairs (fun _ -> Rng.split master) in
      let delta = Array.make n 1.0 in
      let hi = Array.make n 0.0 and lo = Array.make n 0.0 in
      Array.iter
        (fun rng ->
          for i = 0 to n - 1 do
            delta.(i) <- (if Rng.bernoulli rng 0.5 then 1.0 else -1.0);
            hi.(i) <- probs.(i) +. (c *. delta.(i));
            lo.(i) <- probs.(i) -. (c *. delta.(i))
          done;
          let d = (loss hi -. loss lo) /. (2.0 *. c) in
          for i = 0 to n - 1 do
            (* 1/delta = delta for Rademacher entries. *)
            g.(i) <- g.(i) +. (d *. delta.(i))
          done)
        streams;
      let inv = 1.0 /. float_of_int pairs in
      for i = 0 to n - 1 do
        g.(i) <- g.(i) *. inv
      done);
    g
end

(* ------------------------------------------------------------------ *)
(* Trainer                                                              *)
(* ------------------------------------------------------------------ *)

module Trainer = struct
  type config = {
    steps : int;
    pairs : int;
    c : float;
    lr : float;
    distill_epochs : int;
    seed : int;
  }

  let default_config =
    { steps = 8; pairs = 4; c = 0.05; lr = 0.15; distill_epochs = 300; seed = 7 }

  type report = {
    initial_loss : float;
    tuned_loss : float;
    distilled_loss : float;
    kept : bool;
    loss_calls : int;
    trace : (int * float) list;
  }

  let tune cfg ~loss q0 =
    if cfg.steps < 0 then invalid_arg "Dfl.Trainer.tune: negative steps";
    let calls = ref 0 in
    let loss p = incr calls; loss p in
    let q = Array.map clamp01 q0 in
    let best = ref (loss q) in
    let trace = ref [ (0, !best) ] in
    (* Greedy descent along the SPSA estimate, step length measured in
       probability units (infinity-norm normalized so a flat or a steep
       loss surface get the same probe distance); rejected steps halve
       the length.  Every move is validated against the oracle, so the
       tuned vector never regresses below the warm start. *)
    let eta = ref cfg.lr in
    (try
       for step = 1 to cfg.steps do
         let g =
           Estimator.estimate ~c:cfg.c
             ~seed:(cfg.seed + (step * 7919))
             ~method_:(Estimator.Spsa { pairs = cfg.pairs })
             ~loss q
         in
         let gmax = Array.fold_left (fun a v -> Float.max a (Float.abs v)) 0.0 g in
         if gmax <= 1e-15 then raise Exit;
         let cand = Array.mapi (fun i qi -> clamp01 (qi -. (!eta *. g.(i) /. gmax))) q in
         let cl = loss cand in
         if cl < !best -. 1e-12 then begin
           Array.blit cand 0 q 0 (Array.length q);
           best := cl;
           trace := (step, cl) :: !trace
         end
         else eta := Float.max 1e-3 (!eta /. 2.0)
       done
     with Exit -> ());
    (q, !best, !calls, List.rev !trace)

  let report_of ~initial ~tuned ~distilled ~kept ~calls ~trace =
    {
      initial_loss = initial;
      tuned_loss = tuned;
      distilled_loss = distilled;
      kept;
      loss_calls = calls;
      trace;
    }

  let finetune_mlp ?(config = default_config) ~oracle mlp =
    let events = Oracle.events oracle in
    let loss = Oracle.loss oracle in
    let q0 = Array.map (Mlp.predict_proba mlp) events in
    let initial = loss q0 in
    let qstar, tuned, calls, trace = tune config ~loss q0 in
    let targets = Array.map2 (fun e q -> (e, q)) events qstar in
    let mlp' = Mlp.finetune ~epochs:config.distill_epochs mlp ~targets in
    let distilled = loss (Array.map (Mlp.predict_proba mlp') events) in
    (* The distillation is lossy; keep the decision-focused model only
       when its own realized outputs still beat the warm start. *)
    if distilled < initial -. 1e-12 then
      ( mlp',
        report_of ~initial ~tuned ~distilled ~kept:true ~calls:(calls + 1) ~trace )
    else
      ( mlp,
        report_of ~initial ~tuned ~distilled ~kept:false ~calls:(calls + 1) ~trace )
end
