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
  check_impairments imp;
  let samples = tr.Prete_optics.Telemetry.samples in
  reserve fl (2 * Array.length samples);
  fl.f_max_delay <- imp.max_delay;
  let n = ref 0 in
  (* Draw order per sample: gap, then the delivery's delay, then the
     duplicate coin and the copy's delay.  [push] takes the timestamp
     alone: a float argument to a closure would be boxed. *)
  let push t =
    let d =
      if imp.max_delay > 0 && Prete_util.Rng.bernoulli rng imp.reorder_rate then
        1 + Prete_util.Rng.int rng imp.max_delay
      else 0
    in
    fl.f_tick.(!n) <- t + d;
    fl.f_t.(!n) <- t;
    fl.f_v.(!n) <- samples.(t);
    incr n
  in
  for t = 0 to Array.length samples - 1 do
    if not (Prete_util.Rng.bernoulli rng imp.gap_rate) then begin
      push t;
      if Prete_util.Rng.bernoulli rng imp.dup_rate then push t
    end
  done;
  fl.f_len <- !n

let schedule rng imp tr =
  let fl = flat_create () in
  schedule_into fl rng imp tr;
  List.init fl.f_len (get fl)

let offer_due fl ~cursor ~now f =
  for j = cursor to Online.settled fl.f_t fl.f_len ~from:cursor ~bound:now - 1 do
    if fl.f_tick.(j) = now then f fl.f_t.(j) fl.f_v.(j)
  done;
  Online.settled fl.f_t fl.f_len ~from:cursor ~bound:(now - fl.f_max_delay)

let deliver_into fl ing ~last series =
  Online.ingest_schedule ing ~ticks:fl.f_tick ~ts:fl.f_t ~vs:fl.f_v ~n:fl.f_len
    ~max_delay:fl.f_max_delay ~last series

let deliver fl ing ~last f =
  let series = Array.make (max 0 (last + 1)) 0.0 in
  for t = 0 to deliver_into fl ing ~last series - 1 do
    f t series.(t)
  done
