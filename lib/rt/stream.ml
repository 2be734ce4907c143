type impairments = {
  gap_rate : float;
  dup_rate : float;
  reorder_rate : float;
  max_delay : int;
}

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

module Rng = Prete_util.Rng

(* Raw outputs taken from the generator per refill.  A block of 128 is
   1 KiB, allocated on the minor heap once per pass. *)
let block_draws = 128
let block_bytes = 8 * block_draws

(* The pass's draws: [buf] holds the last block and [pos] is the byte
   offset of the next draw in it, [block_bytes] when it is used up (as
   before the first refill). *)
type cursor = { rng : Rng.t; buf : Rng.block; mutable pos : int }

let refill c =
  Rng.fill_block c.rng c.buf ~n:block_draws;
  c.pos <- 0

(* [pos] is a multiple of 8 below [block_bytes] when read. *)
let[@inline] next c =
  if c.pos = block_bytes then refill c;
  let x = Rng.unsafe_block_get c.buf c.pos in
  c.pos <- c.pos + 8;
  x

(* [Rng.bernoulli] with [thr = Rng.bernoulli_threshold p]. *)
let[@inline] coin c thr = Int64.to_int (Int64.shift_right_logical (next c) 11) < thr

(* [Rng.int _ n] with [mask = Rng.int_mask n]: rejection on the low bits. *)
let[@inline] below c ~mask n =
  let v = ref (Int64.to_int (next c) land mask) in
  while !v >= n do
    v := Int64.to_int (next c) land mask
  done;
  !v

(* A copy's delay: no draw at [max_delay] 0, else the reorder coin and,
   on heads, [1 + Rng.int _ max_delay]. *)
let[@inline] delay c ~reorder ~mask n = if n > 0 && coin c reorder then 1 + below c ~mask n else 0

(* Draw order per sample: gap, then the delivery's delay, then the
   duplicate coin and the copy's delay.  The draws come a block at a
   time and are decoded in place, so a draw costs no call and no box;
   the unused tail of the last block goes back to [rng].  [f] takes
   integers alone: a float argument to a closure would be boxed. *)
let iter_arrivals rng imp ~len f =
  check_impairments imp;
  let gap = Rng.bernoulli_threshold imp.gap_rate
  and dup = Rng.bernoulli_threshold imp.dup_rate
  and reorder = Rng.bernoulli_threshold imp.reorder_rate
  and n = imp.max_delay in
  let mask = if n > 0 then Rng.int_mask n else 0 in
  let c = { rng; buf = Rng.block_create block_draws; pos = block_bytes } in
  for t = 0 to len - 1 do
    if not (coin c gap) then begin
      f t (delay c ~reorder ~mask n);
      if coin c dup then f t (delay c ~reorder ~mask n)
    end
  done;
  Rng.give_back rng ((block_bytes - c.pos) / 8)

let schedule rng imp (tr : Prete_optics.Telemetry.trace) =
  let samples = tr.Prete_optics.Telemetry.samples in
  let out = ref [] in
  iter_arrivals rng imp ~len:(Array.length samples) (fun t d ->
      out := { a_tick = t + d; a_t = t; a_v = samples.(t) } :: !out);
  List.rev !out
