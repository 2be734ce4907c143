open Prete_optics

type estimator =
  | Static
  | Calibrated of (Hazard.features -> float)
  | Oracle

type observation = {
  degraded : (int * Hazard.features) list;
  will_cut : int list;
}

let probabilities est (model : Fiber_model.t) obs =
  let nf = Array.length model.Fiber_model.p_cut in
  List.iter
    (fun (f, _) ->
      if f < 0 || f >= nf then invalid_arg "Calibrate.probabilities: fiber out of range")
    obs.degraded;
  match est with
  | Static -> Array.copy model.Fiber_model.p_cut
  | Oracle ->
    Array.init nf (fun n -> if List.mem n obs.will_cut then 1.0 else 0.0)
  | Calibrated predictor ->
    Array.init nf (fun n ->
        match List.assoc_opt n obs.degraded with
        | Some features -> Float.max 0.0 (Float.min 1.0 (predictor features))
        | None ->
          (* Theorem 4.1: no signal → (1 − α) p_i. *)
          (1.0 -. model.Fiber_model.alpha) *. model.Fiber_model.p_cut.(n))
