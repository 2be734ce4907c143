type impairments = {
  gap_rate : float;
  dup_rate : float;
  reorder_rate : float;
  max_delay : int;
}

let no_impairments =
  { gap_rate = 0.0; dup_rate = 0.0; reorder_rate = 0.0; max_delay = 3 }

let default_impairments =
  { gap_rate = 0.02; dup_rate = 0.01; reorder_rate = 0.05; max_delay = 3 }

type arrival = { a_tick : int; a_t : int; a_v : float }

type flat = {
  mutable f_len : int;
  mutable f_max_delay : int;
  mutable f_tick : int array;
  mutable f_t : int array;
  mutable f_v : float array;
}

let flat_create () =
  { f_len = 0; f_max_delay = 0; f_tick = [||]; f_t = [||]; f_v = [||] }

let domain_key = Domain.DLS.new_key flat_create
let domain_buffer () = Domain.DLS.get domain_key

let length fl = fl.f_len

let get fl i =
  if i < 0 || i >= fl.f_len then invalid_arg "Stream.get: index out of range";
  { a_tick = fl.f_tick.(i); a_t = fl.f_t.(i); a_v = fl.f_v.(i) }

(* Every sample arrives at most twice, so twice the trace length bounds
   the schedule; the arrays only ever grow. *)
let reserve fl cap =
  if Array.length fl.f_tick < cap then begin
    fl.f_tick <- Array.make cap 0;
    fl.f_t <- Array.make cap 0;
    fl.f_v <- Array.make cap 0.0
  end

let schedule_into fl rng (imp : impairments) (tr : Prete_optics.Telemetry.trace) =
  if imp.max_delay < 0 then invalid_arg "Stream.schedule: negative max_delay";
  let samples = tr.Prete_optics.Telemetry.samples in
  reserve fl (2 * Array.length samples);
  fl.f_max_delay <- imp.max_delay;
  let n = ref 0 in
  (* Draw order per sample: gap, then the delivery's delay, then the
     duplicate coin and the copy's delay. *)
  let push t v =
    let d =
      if imp.max_delay > 0 && Prete_util.Rng.bernoulli rng imp.reorder_rate then
        1 + Prete_util.Rng.int rng imp.max_delay
      else 0
    in
    fl.f_tick.(!n) <- t + d;
    fl.f_t.(!n) <- t;
    fl.f_v.(!n) <- v;
    incr n
  in
  for t = 0 to Array.length samples - 1 do
    if not (Prete_util.Rng.bernoulli rng imp.gap_rate) then begin
      let v = samples.(t) in
      push t v;
      if Prete_util.Rng.bernoulli rng imp.dup_rate then push t v
    end
  done;
  fl.f_len <- !n

let schedule rng imp tr =
  let fl = flat_create () in
  schedule_into fl rng imp tr;
  List.init fl.f_len (get fl)

(* Arrivals sit in source-timestamp order and each lands within
   [max_delay] ticks of its timestamp, so the ones due at [now] lie in
   the run from the cursor up to the last timestamp <= [now], and
   everything with timestamp <= [now - max_delay] has landed. *)
let offer_due fl ~cursor ~now f =
  let n = fl.f_len and ticks = fl.f_tick and ts = fl.f_t in
  let j = ref cursor in
  while !j < n && ts.(!j) <= now do
    if ticks.(!j) = now then f ts.(!j) fl.f_v.(!j);
    incr j
  done;
  let c = ref cursor in
  while !c < n && ts.(!c) + fl.f_max_delay <= now do
    incr c
  done;
  !c

let deliver fl ing ~last f =
  let offer t v = Online.offer ing ~t ~v in
  let cursor = ref 0 in
  for now = 0 to last + fl.f_max_delay do
    cursor := offer_due fl ~cursor:!cursor ~now offer;
    Online.drain_iter ing ~now f
  done;
  if fl.f_len > 0 then Online.flush_iter ing ~upto:last f
