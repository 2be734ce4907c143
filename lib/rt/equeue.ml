(* Events live in a node pool ([pay], with [nxt] linking each node to
   the next one of its tick, and freed nodes chained from [free]).  Tick
   [t]'s FIFO runs from [head.(t land mask)] to [tail.(t land mask)];
   the ring never holds two live ticks in one slot because every pending
   event lies in [lo, hi] and [hi - lo] < capacity. *)

type 'a t = {
  mutable head : int array;  (* first node of the slot's tick, or -1 *)
  mutable tail : int array;  (* last node of the slot's tick *)
  mutable mask : int;  (* ring capacity - 1; capacity is a power of two *)
  mutable pay : 'a array;  (* node payloads; empty until the first push *)
  mutable nxt : int array;  (* next node in the same tick, or -1 *)
  mutable free : int;  (* free-list head, or -1 *)
  mutable used : int;  (* nodes ever handed out *)
  mutable lo : int;  (* no pending event is earlier; valid when size > 0 *)
  mutable hi : int;  (* no pending event is later; valid when size > 0 *)
  mutable size : int;
}

let init_cap = 16

let create () =
  {
    head = Array.make init_cap (-1);
    tail = Array.make init_cap (-1);
    mask = init_cap - 1;
    pay = [||];
    nxt = [||];
    free = -1;
    used = 0;
    lo = 0;
    hi = 0;
    size = 0;
  }

(* Re-slot the pending ticks [lo, hi] (size > 0) into a ring of at
   least [span] slots. *)
let grow_ring q span =
  let cap = ref (2 * (q.mask + 1)) in
  while !cap < span do
    cap := 2 * !cap
  done;
  let mask = !cap - 1 in
  let head = Array.make !cap (-1) and tail = Array.make !cap (-1) in
  for t = q.lo to q.hi do
    let o = t land q.mask and n = t land mask in
    head.(n) <- q.head.(o);
    tail.(n) <- q.tail.(o)
  done;
  q.head <- head;
  q.tail <- tail;
  q.mask <- mask

let alloc_node q payload =
  if q.free >= 0 then begin
    let n = q.free in
    q.free <- q.nxt.(n);
    q.pay.(n) <- payload;
    n
  end
  else begin
    let cap = Array.length q.pay in
    if q.used = cap then begin
      let cap' = Int.max init_cap (2 * cap) in
      let pay = Array.make cap' payload and nxt = Array.make cap' (-1) in
      Array.blit q.pay 0 pay 0 cap;
      Array.blit q.nxt 0 nxt 0 cap;
      q.pay <- pay;
      q.nxt <- nxt
    end;
    let n = q.used in
    q.used <- n + 1;
    q.pay.(n) <- payload;
    n
  end

let push q ~time payload =
  if q.size = 0 then begin
    q.lo <- time;
    q.hi <- time
  end
  else begin
    let lo = Int.min q.lo time and hi = Int.max q.hi time in
    if hi - lo > q.mask then grow_ring q (hi - lo + 1);
    q.lo <- lo;
    q.hi <- hi
  end;
  let n = alloc_node q payload in
  q.nxt.(n) <- -1;
  let s = time land q.mask in
  if q.head.(s) < 0 then q.head.(s) <- n else q.nxt.(q.tail.(s)) <- n;
  q.tail.(s) <- n;
  q.size <- q.size + 1

(* Advance the cursor to the earliest non-empty tick (size > 0). *)
let settle q =
  while q.head.(q.lo land q.mask) < 0 do
    q.lo <- q.lo + 1
  done

(* Unlink the head node of tick [q.lo] (settled, non-empty). *)
let take q =
  let s = q.lo land q.mask in
  let n = q.head.(s) in
  q.head.(s) <- q.nxt.(n);
  q.nxt.(n) <- q.free;
  q.free <- n;
  q.size <- q.size - 1;
  q.pay.(n)

let pop q =
  if q.size = 0 then None
  else begin
    settle q;
    let time = q.lo in
    Some (time, take q)
  end

let iter_until q ~time f =
  let continue = ref true in
  while !continue && q.size > 0 do
    settle q;
    let t = q.lo in
    if t <= time then f t (take q) else continue := false
  done

let pop_until q ~time =
  let out = ref [] in
  iter_until q ~time (fun t x -> out := (t, x) :: !out);
  List.rev !out

let peek_time q =
  if q.size = 0 then None
  else begin
    settle q;
    Some q.lo
  end

let length q = q.size
let is_empty q = q.size = 0
