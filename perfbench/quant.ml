(* Order statistics and failure accounting shared by every workload. *)

(* 1-based nearest rank of the [q]th percentile among [n] samples; the
   slack keeps decimal percentiles such as 99.9 from rounding up a rank. *)
let rank n q = int_of_float (Float.ceil ((q /. 100.0 *. float_of_int n) -. 1e-9))

(* Nearest-rank percentile of an ascending array: the smallest sample
   with at least [q]% of the samples at or below it. *)
let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Quant.percentile: no samples";
  sorted.(max 0 (min (n - 1) (rank n q - 1)))

(* Samples strictly above the nearest-rank [q]th percentile. *)
let beyond n q = n - rank n q

let tail_candidates = [ 99.9; 99.0; 95.0; 90.0; 75.0; 50.0 ]

(* The tail percentile reported for [n] samples: the highest candidate
   with at least [min_beyond] (10) samples beyond it.  With fewer than
   [2 * min_beyond + 1] samples no candidate above the median qualifies
   and the tail collapses to the median (p50). *)
let tail_pct ?(min_beyond = 10) n =
  match List.find_opt (fun q -> beyond n q >= min_beyond) tail_candidates with
  | Some q -> q
  | None -> 50.0

let median values =
  let a = Array.of_list values in
  Array.sort compare a;
  percentile a 50.0

(* Failure accounting: every attempted operation is counted once, and a
   failed one records the first check it failed. *)
module Tally = struct
  type t = {
    mutable attempted : int;
    mutable failed : int;
    mutable reasons : (string * int) list;  (** Check name → failures. *)
  }

  let create () = { attempted = 0; failed = 0; reasons = [] }

  let ok t = t.attempted <- t.attempted + 1

  let fail t reason =
    t.attempted <- t.attempted + 1;
    t.failed <- t.failed + 1;
    t.reasons <-
      (reason, 1 + Option.value ~default:0 (List.assoc_opt reason t.reasons))
      :: List.remove_assoc reason t.reasons

  (* The whole run fails: every attempted operation counts as failed. *)
  let fail_all t reason =
    t.reasons <- (reason, t.attempted) :: List.remove_assoc reason t.reasons;
    t.failed <- t.attempted

  let failed_share t =
    if t.attempted = 0 then 0.0 else float_of_int t.failed /. float_of_int t.attempted
end
