open Prete_util
open Prete_optics

type feature = Time | Degree | Gradient | Fluctuation | Region | Fiber_id | Vendor

let feature_name = function
  | Time -> "time"
  | Degree -> "degree"
  | Gradient -> "gradient"
  | Fluctuation -> "fluctuation"
  | Region -> "region"
  | Fiber_id -> "fiber ID"
  | Vendor -> "vendor"

let all_features = [ Time; Degree; Gradient; Fluctuation; Region; Fiber_id; Vendor ]

type config = {
  hidden : int;
  embed_fiber : int;
  embed_region : int;
  learning_rate : float;
  l2 : float;
  epochs : int;
  batch : int;
  seed : int;
}

let default_config =
  {
    hidden = 64;
    embed_fiber = 8;
    embed_region = 2;
    learning_rate = 1e-3;
    l2 = 2e-4;
    epochs = 30;
    batch = 32;
    seed = 42;
  }

(* Replace the ablated feature with a constant: same architecture, no
   information content (Table 8). *)
let neutralize ablate (f : Hazard.features) =
  match ablate with
  | None -> f
  | Some Time -> { f with Hazard.time_of_day = 12.0 }
  | Some Degree -> { f with Hazard.degree = 6.5 }
  | Some Gradient -> { f with Hazard.gradient = 0.1 }
  | Some Fluctuation -> { f with Hazard.fluctuation = 5 }
  | Some Region -> { f with Hazard.region = 0 }
  | Some Fiber_id -> { f with Hazard.fiber = 0 }
  | Some Vendor -> { f with Hazard.vendor = 0 }

(* ------------------------------------------------------------------ *)
(* Parameters                                                           *)
(* ------------------------------------------------------------------ *)

(* Every parameter is one flat float array.  w1 is stored input-major:
   w1.(c * hidden + i) weights input column c into hidden unit i, so one
   input entry meets every unit in one contiguous pass. *)
type params = {
  w1 : float array;  (* d_in x hidden; d_in = dense width + embed_fiber + embed_region *)
  b1 : float array;
  w2 : float array;  (* 2 x hidden *)
  b2 : float array;
  ef : float array;  (* n_fibers x embed_fiber *)
  er : float array;  (* n_regions x embed_region *)
}

type t = {
  config : config;
  encoder : Encoder.t;
  ablate : feature option;
  p : params;
}

let map_params f p =
  { w1 = f p.w1; b1 = f p.b1; w2 = f p.w2; b2 = f p.b2; ef = f p.ef; er = f p.er }

let iter_params f a b c d =
  f a.w1 b.w1 c.w1 d.w1;
  f a.b1 b.b1 c.b1 d.b1;
  f a.w2 b.w2 c.w2 d.w2;
  f a.b2 b.b2 c.b2 d.b2;
  f a.ef b.ef c.ef d.ef;
  f a.er b.er c.er d.er

let zeros_like p = map_params (fun a -> Array.make (Array.length a) 0.0) p

(* ------------------------------------------------------------------ *)
(* The kernel                                                           *)
(* ------------------------------------------------------------------ *)

(* One kernel serves [train], [finetune] and every prediction.  The input
   x = numerics ++ time one-hot ++ vendor one-hot ++ ef.(fiber) ++
   er.(region) is never built densely: [load] writes the entries the
   kernel visits (the numerics, the two one-hot ones and the embedding
   entries, in ascending column order) as (column, value) pairs, the w1
   products and the w1 gradient run over those pairs only, and dx is
   computed for the embedding entries only, the one part of it that is
   read.  Every sum still adds its terms in ascending column order (per
   unit) and ascending unit order (per dx entry), and the result is
   bit-identical to the dense product over all of x:
   - a skipped one-hot term is w *. 0.0 with w finite, so a partial sum
     can differ from the dense one only in the sign of a zero, and
     neither ReLU ([z > 0.0]) nor the gradient gate ([z <= 0.0]) sees
     that sign;
   - a gradient accumulator starts at +0.0 and can never become -0.0
     (only -0 + -0 is -0), so adding the skipped ±0 would never change it;
   - the numerics stay dense, even at 0.0, so a NaN feature poisons the
     same weights and a NaN weight the same outputs as the dense
     product does.
   The first two need w and dh finite.  They are: a NaN input reaches
   only the numeric columns of w1 (ReLU maps a NaN pre-activation to
   0.0, so h, the logits and dh stay finite), and an Adam step moves a
   weight by a bounded multiple of the learning rate. *)

type scratch = {
  cols : int array;  (* the visited input entries, ascending *)
  vals : float array;
  z1 : float array;  (* pre-activations *)
  h : float array;  (* ReLU outputs *)
  dh : float array;  (* dL/dz1, on the active units *)
  active : int array;  (* units with a non-zero gradient, ascending *)
  dx : float array;  (* dL/d(embedding entries of x) *)
  pr : float array;  (* softmax over {normal, failure} *)
}

let scratch config =
  let nv = Encoder.num_numeric + 2 + config.embed_fiber + config.embed_region in
  {
    cols = Array.make nv 0;
    vals = Array.make nv 0.0;
    z1 = Array.make config.hidden 0.0;
    h = Array.make config.hidden 0.0;
    dh = Array.make config.hidden 0.0;
    active = Array.make config.hidden 0;
    dx = Array.make (config.embed_fiber + config.embed_region) 0.0;
    pr = Array.make 2 0.0;
  }

let encode t f = Encoder.encode t.encoder (neutralize t.ablate f)

(* Load one encoded input.  Its one-hot columns satisfy
   [num_numeric <= time_col < vendor_col < dense width], so every loaded
   column is below d_in, and every active unit is below [hidden]: that
   is what lets the three inner loops below skip their bounds checks. *)
let load t s (e : Encoder.encoded) =
  let nn = Encoder.num_numeric and dw = Encoder.dense_width t.encoder in
  let tc = e.Encoder.time_col and vc = e.Encoder.vendor_col in
  assert (nn <= tc && tc < vc && vc < dw);
  let kf = t.config.embed_fiber and kr = t.config.embed_region in
  for j = 0 to nn - 1 do
    s.cols.(j) <- j;
    s.vals.(j) <- e.Encoder.dense.(j)
  done;
  s.cols.(nn) <- tc;
  s.vals.(nn) <- 1.0;
  s.cols.(nn + 1) <- vc;
  s.vals.(nn + 1) <- 1.0;
  for j = 0 to kf - 1 do
    s.cols.(nn + 2 + j) <- dw + j;
    s.vals.(nn + 2 + j) <- t.p.ef.((e.Encoder.fiber * kf) + j)
  done;
  for j = 0 to kr - 1 do
    s.cols.(nn + 2 + kf + j) <- dw + kf + j;
    s.vals.(nn + 2 + kf + j) <- t.p.er.((e.Encoder.region * kr) + j)
  done

(* Forward pass of the loaded input. *)
let forward t s =
  let hidden = t.config.hidden and { w1; b1; w2; b2; _ } = t.p in
  let z = s.z1 in
  Array.blit b1 0 z 0 hidden;
  for v = 0 to Array.length s.cols - 1 do
    let o = s.cols.(v) * hidden and x = s.vals.(v) in
    for i = 0 to hidden - 1 do
      Array.unsafe_set z i (Array.unsafe_get z i +. (Array.unsafe_get w1 (o + i) *. x))
    done
  done;
  let l0 = ref b2.(0) and l1 = ref b2.(1) in
  for i = 0 to hidden - 1 do
    let h = if z.(i) > 0.0 then z.(i) else 0.0 in
    s.h.(i) <- h;
    l0 := !l0 +. (w2.(i) *. h);
    l1 := !l1 +. (w2.(hidden + i) *. h)
  done;
  (* Matrix.Vec.softmax on two logits, operation for operation. *)
  let m = Float.max !l0 !l1 in
  let e0 = exp (!l0 -. m) and e1 = exp (!l1 -. m) in
  let sum = e0 +. e1 in
  s.pr.(0) <- e0 /. sum;
  s.pr.(1) <- e1 /. sum

(* Add the cross-entropy gradient of example [k] (input [xs.(k)], target
   distribution (1 - q.(k), q.(k))) into [g]; dL/dlogits = softmax -
   target. *)
let accumulate t s (g : params) (xs : Encoder.encoded array) q k =
  let e = xs.(k) in
  load t s e;
  forward t s;
  let hidden = t.config.hidden and { w1; w2; _ } = t.p in
  let dy0 = s.pr.(0) -. (1.0 -. q.(k)) and dy1 = s.pr.(1) -. q.(k) in
  for i = 0 to hidden - 1 do
    g.w2.(i) <- g.w2.(i) +. (dy0 *. s.h.(i));
    g.w2.(hidden + i) <- g.w2.(hidden + i) +. (dy1 *. s.h.(i))
  done;
  g.b2.(0) <- g.b2.(0) +. dy0;
  g.b2.(1) <- g.b2.(1) +. dy1;
  (* A unit is active when its gate is open ([not (z <= 0.0)], so a NaN
     pre-activation passes) and its gradient is non-zero. *)
  let na = ref 0 in
  for i = 0 to hidden - 1 do
    let dh = (w2.(i) *. dy0) +. (w2.(hidden + i) *. dy1) in
    if (not (s.z1.(i) <= 0.0)) && dh <> 0.0 then begin
      s.dh.(i) <- dh;
      s.active.(!na) <- i;
      incr na;
      g.b1.(i) <- g.b1.(i) +. dh
    end
  done;
  let gw = g.w1 and nn2 = Encoder.num_numeric + 2 in
  for v = 0 to Array.length s.cols - 1 do
    let o = s.cols.(v) * hidden and x = s.vals.(v) in
    for a = 0 to !na - 1 do
      let i = Array.unsafe_get s.active a in
      Array.unsafe_set gw (o + i) (Array.unsafe_get gw (o + i) +. (Array.unsafe_get s.dh i *. x))
    done;
    if v >= nn2 then begin
      let dx = ref 0.0 in
      for a = 0 to !na - 1 do
        let i = Array.unsafe_get s.active a in
        dx := !dx +. (Array.unsafe_get s.dh i *. Array.unsafe_get w1 (o + i))
      done;
      s.dx.(v - nn2) <- !dx
    end
  done;
  let kf = t.config.embed_fiber and kr = t.config.embed_region in
  let fo = e.Encoder.fiber * kf and ro = e.Encoder.region * kr in
  for j = 0 to kf - 1 do
    g.ef.(fo + j) <- g.ef.(fo + j) +. s.dx.(j)
  done;
  for j = 0 to kr - 1 do
    g.er.(ro + j) <- g.er.(ro + j) +. s.dx.(kf + j)
  done

(* Adam over the batch mean plus the L2 term, one element at a time;
   leaves the gradient accumulators at +0.0 for the next batch. *)
type adam = { g : params; m : params; v : params; mutable step : int }

let adam_of p = { g = zeros_like p; m = zeros_like p; v = zeros_like p; step = 0 }

let apply_batch t a ~lr ~batch_size =
  a.step <- a.step + 1;
  let beta1 = 0.9 and beta2 = 0.999 and eps = 1e-8 in
  let bc1 = 1.0 -. (beta1 ** float_of_int a.step) in
  let bc2 = 1.0 -. (beta2 ** float_of_int a.step) in
  let inv = 1.0 /. float_of_int batch_size and l2 = t.config.l2 in
  iter_params
    (fun p g m v ->
      for k = 0 to Array.length p - 1 do
        let gk = (g.(k) *. inv) +. (l2 *. p.(k)) in
        m.(k) <- (beta1 *. m.(k)) +. ((1.0 -. beta1) *. gk);
        v.(k) <- (beta2 *. v.(k)) +. ((1.0 -. beta2) *. gk *. gk);
        let mhat = m.(k) /. bc1 and vhat = v.(k) /. bc2 in
        p.(k) <- p.(k) -. (lr *. mhat /. (sqrt vhat +. eps));
        g.(k) <- 0.0
      done)
    t.p a.g a.m a.v

(* ------------------------------------------------------------------ *)
(* Training                                                             *)
(* ------------------------------------------------------------------ *)

let check_lr who lr =
  if not (Float.is_finite lr && lr > 0.0) then
    invalid_arg (who ^ ": learning rate must be finite and > 0")

let check_epochs who epochs =
  if epochs < 0 then invalid_arg (who ^ ": epochs must be >= 0")

let check_config c =
  let who = "Mlp.train" in
  if c.hidden < 1 then invalid_arg (who ^ ": hidden must be >= 1");
  if c.embed_fiber < 0 || c.embed_region < 0 then
    invalid_arg (who ^ ": embedding widths must be >= 0");
  check_epochs who c.epochs;
  if c.batch < 1 then invalid_arg (who ^ ": batch must be >= 1");
  check_lr who c.learning_rate;
  if not (Float.is_finite c.l2 && c.l2 >= 0.0) then
    invalid_arg (who ^ ": l2 must be finite and >= 0")

let uniform_init rng n scale = Array.init n (fun _ -> Rng.uniform rng (-.scale) scale)

let train ?(config = default_config) ?ablate examples =
  check_config config;
  if Array.length examples = 0 then invalid_arg "Mlp.train: empty training set";
  let pos = Corpus.positives examples in
  if pos = 0 || pos = Array.length examples then
    invalid_arg "Mlp.train: single-class training set";
  let data = Corpus.oversample ~seed:(config.seed + 1) examples in
  let encoder = Encoder.fit data in
  let dw = Encoder.dense_width encoder in
  let d_in = dw + config.embed_fiber + config.embed_region in
  let rng = Rng.create config.seed in
  let scale = 1.0 /. sqrt (float_of_int d_in) in
  (* The draws run er, ef, w2, then w1 unit by unit: the seeded
     initialisation every pinned model starts from. *)
  let er = uniform_init rng (Encoder.num_regions encoder * config.embed_region) 0.1 in
  let ef = uniform_init rng (Encoder.num_fibers encoder * config.embed_fiber) 0.1 in
  let w2 = uniform_init rng (2 * config.hidden) (1.0 /. sqrt (float_of_int config.hidden)) in
  let w1 = Array.make (d_in * config.hidden) 0.0 in
  for i = 0 to config.hidden - 1 do
    for c = 0 to d_in - 1 do
      w1.((c * config.hidden) + i) <- Rng.uniform rng (-.scale) scale
    done
  done;
  let p = { w1; b1 = Array.make config.hidden 0.0; w2; b2 = Array.make 2 0.0; ef; er } in
  let t = { config; encoder; ablate; p } in
  (* Encoded once; one-hot targets are q = 0.0 or 1.0. *)
  let xs = Array.map (fun e -> encode t e.Corpus.features) data in
  let q = Array.map (fun e -> if e.Corpus.label then 1.0 else 0.0) data in
  let s = scratch config and a = adam_of p in
  let n = Array.length data in
  let order = Array.init n (fun i -> i) in
  for _epoch = 1 to config.epochs do
    Rng.shuffle rng order;
    let i = ref 0 in
    while !i < n do
      let batch_size = min config.batch (n - !i) in
      for k = !i to !i + batch_size - 1 do
        accumulate t s a.g xs q order.(k)
      done;
      apply_batch t a ~lr:config.learning_rate ~batch_size;
      i := !i + batch_size
    done
  done;
  t

let finetune ?(epochs = 300) ?lr t ~targets =
  let lr = match lr with Some l -> l | None -> t.config.learning_rate in
  check_epochs "Mlp.finetune" epochs;
  check_lr "Mlp.finetune" lr;
  if Array.length targets = 0 then invalid_arg "Mlp.finetune: empty target set";
  Array.iter
    (fun (_, q) ->
      if not (Float.is_finite q) || q < 0.0 || q > 1.0 then
        invalid_arg "Mlp.finetune: target outside [0, 1]")
    targets;
  (* Deep-copy: train/finetune update parameter arrays in place, and
     the warm-start model must survive as the fallback the trainer can
     return when the distilled model does not beat it. *)
  let t = { t with p = map_params Array.copy t.p } in
  let xs = Array.map (fun (f, _) -> encode t f) targets and q = Array.map snd targets in
  let s = scratch t.config and a = adam_of t.p in
  (* Full-batch descent on soft-label cross-entropy: the target sets are
     one event per fiber, far smaller than a training corpus, and
     full batches keep the pass free of shuffling state entirely. *)
  let n = Array.length targets in
  for _epoch = 1 to epochs do
    for k = 0 to n - 1 do
      accumulate t s a.g xs q k
    done;
    apply_batch t a ~lr ~batch_size:n
  done;
  t

(* ------------------------------------------------------------------ *)
(* Prediction                                                           *)
(* ------------------------------------------------------------------ *)

let proba_with s t f =
  load t s (encode t f);
  forward t s;
  s.pr.(1)

(* A fresh scratch per call: a model may serve several domains at once. *)
let predict_proba t f = proba_with (scratch t.config) t f

let predict_label t f = predict_proba t f >= 0.5

let predict_batch t fs =
  let s = scratch t.config in
  Array.map (proba_with s t) fs

let average_nll t examples =
  if Array.length examples = 0 then invalid_arg "Mlp.average_nll: empty set";
  let s = scratch t.config in
  let total =
    Array.fold_left
      (fun acc e ->
        let p1 = proba_with s t e.Corpus.features in
        let p = if e.Corpus.label then p1 else 1.0 -. p1 in
        acc -. log (Float.max 1e-12 p))
      0.0 examples
  in
  total /. float_of_int (Array.length examples)
