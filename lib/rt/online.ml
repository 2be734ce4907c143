(* Incremental accumulators replicate the offline folds' operation order
   (see Prete_util.Timeseries): [degree] is the running
   [Float.max acc (v -. baseline)] fold from 0.0, [mean_abs_gradient]
   sums |Δ| in arrival order and divides once at read time,
   [fluctuation_count] counts strict >threshold steps — so the values
   are bit-identical to the offline functions on the same prefix, not
   merely close. *)

type acc = {
  baseline : float;
  threshold : float;
  mutable n : int;
  mutable last : float;
  mutable deg : float;
  mutable grad_sum : float;
  mutable fluct : int;
}

let acc_create ?(fluct_threshold = 0.01) ~baseline () =
  {
    baseline;
    threshold = fluct_threshold;
    n = 0;
    last = 0.0;
    deg = 0.0;
    grad_sum = 0.0;
    fluct = 0;
  }

let acc_add a v =
  a.deg <- Float.max a.deg (v -. a.baseline);
  if a.n > 0 then begin
    let d = Float.abs (v -. a.last) in
    a.grad_sum <- a.grad_sum +. d;
    if d > a.threshold then a.fluct <- a.fluct + 1
  end;
  a.last <- v;
  a.n <- a.n + 1

let acc_count a = a.n
let degree a = a.deg

let mean_abs_gradient a =
  if a.n < 2 then 0.0 else a.grad_sum /. float_of_int (a.n - 1)

let fluctuation_count a = a.fluct

(* ------------------------------------------------------------------ *)
(* Reorder-tolerant ingest                                              *)
(* ------------------------------------------------------------------ *)

(* The reorder window is a ring over source timestamps: [vals] and
   [present] are indexed by [t land mask] and cover [next, next + mask].
   Every pending sample lies in [next, max_seen], so the ring doubles
   whenever [max_seen - next] would outgrow it. *)
type ingest = {
  horizon : int;
  mutable vals : float array;
  mutable present : bool array;
  mutable mask : int;  (* ring capacity - 1; capacity is a power of two *)
  mutable next : int;  (* next timestamp to finalize *)
  mutable last_t : int;  (* last emitted present timestamp, -1 if none *)
  last_v : float array;  (* [| its value |]: a float array stays unboxed *)
  mutable max_seen : int;
  mutable dups : int;
  mutable late : int;
  mutable filled : int;
}

let init_cap = 16

let ingest_create ?(horizon = 3) () =
  if horizon < 0 then invalid_arg "Online.ingest_create: negative horizon";
  {
    horizon;
    vals = Array.make init_cap 0.0;
    present = Array.make init_cap false;
    mask = init_cap - 1;
    next = 0;
    last_t = -1;
    last_v = [| 0.0 |];
    max_seen = -1;
    dups = 0;
    late = 0;
    filled = 0;
  }

(* Re-slot the pending samples into a ring covering [next, upto]. *)
let grow g ~upto =
  let cap = ref (2 * (g.mask + 1)) in
  while !cap <= upto - g.next do
    cap := 2 * !cap
  done;
  let mask = !cap - 1 in
  let vals = Array.make !cap 0.0 and present = Array.make !cap false in
  for t = g.next to g.max_seen do
    let o = t land g.mask in
    if g.present.(o) then begin
      let n = t land mask in
      vals.(n) <- g.vals.(o);
      present.(n) <- true
    end
  done;
  g.vals <- vals;
  g.present <- present;
  g.mask <- mask

let offer g ~t ~v =
  if t < g.next then g.late <- g.late + 1
  else begin
    if t - g.next > g.mask then grow g ~upto:t;
    let s = t land g.mask in
    if g.present.(s) then g.dups <- g.dups + 1
    else begin
      g.present.(s) <- true;
      g.vals.(s) <- v;
      if t > g.max_seen then g.max_seen <- t
    end
  end

(* Smallest present timestamp in (after, upto], or -1.  A timestamp's
   presence is only {e final} once it is at or behind the finalization
   frontier (no arrival can still land there), so the caller bounds
   [upto] by the frontier — this is what makes online gap interpolation
   agree with the offline pass over the completed trace: both use the
   true nearest present neighbours.  Nothing past [max_seen] is
   present. *)
let next_present g ~after ~upto =
  let upto = Int.min upto g.max_seen in
  let t = ref (after + 1) in
  while !t <= upto && not g.present.(!t land g.mask) do
    incr t
  done;
  if !t <= upto then !t else -1

(* Finalize everything at or behind [frontier], storing each
   timestamp's value at [dst.(t - base)] in timestamp order (stored, not
   passed to a function, so nothing is boxed).  [closing] additionally
   fills a trailing gap (stream over: no right neighbour will come). *)
let finalize g ~frontier ~closing dst base =
  let continue = ref true in
  while !continue && g.next <= frontier do
    let s = g.next land g.mask in
    if g.present.(s) then begin
      let v = g.vals.(s) in
      g.present.(s) <- false;
      dst.(g.next - base) <- v;
      g.last_t <- g.next;
      g.last_v.(0) <- v;
      g.next <- g.next + 1
    end
    else begin
      let t1 = next_present g ~after:g.next ~upto:frontier in
      if t1 >= 0 then begin
        (* Interior (or leading) gap with a determined right neighbour:
           the exact Timeseries.interpolate_missing arithmetic. *)
        let v1 = g.vals.(t1 land g.mask) in
        if g.last_t < 0 then
          for j = g.next to t1 - 1 do
            dst.(j - base) <- v1;
            g.filled <- g.filled + 1
          done
        else begin
          let i0 = g.last_t and v0 = g.last_v.(0) in
          let span = float_of_int (t1 - i0) in
          for j = g.next to t1 - 1 do
            let w = float_of_int (j - i0) /. span in
            dst.(j - base) <- ((1.0 -. w) *. v0) +. (w *. v1);
            g.filled <- g.filled + 1
          done
        end;
        g.next <- t1
      end
      else if closing then begin
        if g.last_t < 0 then invalid_arg "Online.flush: no samples present";
        let v0 = g.last_v.(0) in
        for j = g.next to frontier do
          dst.(j - base) <- v0;
          g.filled <- g.filled + 1
        done;
        g.next <- frontier + 1
      end
      else continue := false (* right neighbour not yet determined *)
    end
  done

(* The callback forms finalize into a window that starts at [next] and
   spans every timestamp the call can emit, then hand the values on. *)
let finalize_iter g ~frontier ~closing f =
  let base = g.next in
  let hi = if closing then frontier else Int.min frontier g.max_seen in
  if hi >= base then begin
    let dst = Array.make (hi - base + 1) 0.0 in
    finalize g ~frontier ~closing dst base;
    for t = base to g.next - 1 do
      f t dst.(t - base)
    done
  end

let drain_iter g ~now f = finalize_iter g ~frontier:(now - g.horizon) ~closing:false f
let flush_iter g ~upto f = finalize_iter g ~frontier:upto ~closing:true f

let to_list run =
  let out = ref [] in
  run (fun t v -> out := (t, v) :: !out);
  List.rev !out

let drain g ~now = to_list (drain_iter g ~now)
let flush g ~upto = to_list (flush_iter g ~upto)
let dups g = g.dups
let late g = g.late
let filled g = g.filled
