open Prete_optics

let num_numeric = 5
let num_hours = 24
let num_vendors = 4
let num_regions_const = 3

type t = {
  lo : float array;  (** Per-numeric min over the training set. *)
  hi : float array;
  n_fibers : int;
}

type encoded = {
  dense : float array;
  time_col : int;
  vendor_col : int;
  fiber : int;
  region : int;
}

let numeric (f : Hazard.features) =
  [|
    f.Hazard.degree;
    f.Hazard.gradient;
    float_of_int f.Hazard.fluctuation;
    f.Hazard.length_km;
    f.Hazard.duration_s;
  |]

let fit examples =
  if Array.length examples = 0 then invalid_arg "Encoder.fit: empty training set";
  let lo = Array.make num_numeric infinity and hi = Array.make num_numeric neg_infinity in
  let n_fibers = ref 0 in
  Array.iter
    (fun (e : Corpus.example) ->
      let v = numeric e.Corpus.features in
      for i = 0 to num_numeric - 1 do
        if v.(i) < lo.(i) then lo.(i) <- v.(i);
        if v.(i) > hi.(i) then hi.(i) <- v.(i)
      done;
      if e.Corpus.features.Hazard.fiber >= !n_fibers then
        n_fibers := e.Corpus.features.Hazard.fiber + 1)
    examples;
  { lo; hi; n_fibers = max 1 !n_fibers }

let dense_width _t = num_numeric + num_hours + num_vendors

let num_fibers t = t.n_fibers
let num_regions _ = num_regions_const

let encode t (f : Hazard.features) =
  let dense = Array.make (num_numeric + num_hours + num_vendors) 0.0 in
  let v = numeric f in
  for i = 0 to num_numeric - 1 do
    let range = t.hi.(i) -. t.lo.(i) in
    (* Clamp test-time values into the fitted range. *)
    dense.(i) <-
      (if range <= 0.0 then 0.0
       else Float.max 0.0 (Float.min 1.0 ((v.(i) -. t.lo.(i)) /. range)))
  done;
  let tod = f.Hazard.time_of_day in
  if not (Float.is_finite tod) then
    invalid_arg (Printf.sprintf "Encoder.encode: time_of_day must be finite (got %g)" tod);
  (* The hour wraps like the vendor index: -2.0 is hour 22, 30.0 hour 6.
     [Float.rem] keeps the value in (-24, 24), so its floor fits an
     [int]; the integer wrap maps that floor into [0, 24). *)
  let h = int_of_float (Float.floor (Float.rem tod (float_of_int num_hours))) in
  let hour = ((h mod num_hours) + num_hours) mod num_hours in
  let time_col = num_numeric + hour in
  dense.(time_col) <- 1.0;
  let vendor = ((f.Hazard.vendor mod num_vendors) + num_vendors) mod num_vendors in
  let vendor_col = num_numeric + num_hours + vendor in
  dense.(vendor_col) <- 1.0;
  {
    dense;
    time_col;
    vendor_col;
    fiber = ((f.Hazard.fiber mod t.n_fibers) + t.n_fibers) mod t.n_fibers;
    region = ((f.Hazard.region mod num_regions_const) + num_regions_const) mod num_regions_const;
  }
