type entry = { seq : int; tick : int; kind : string; fiber : int; value : float }

(* [buf] starts small and doubles up to [capacity] before the first
   wrap, so a run that logs a few events does not hold a
   capacity-sized array for as long as its result lives. *)
type t = {
  capacity : int;
  mutable buf : entry array;
  mutable count : int;  (* total pushed *)
}

let dummy = { seq = -1; tick = 0; kind = ""; fiber = -1; value = 0.0 }

let create ~capacity =
  if capacity <= 0 then invalid_arg "Ring.create: capacity must be positive";
  { capacity; buf = Array.make (Int.min capacity 16) dummy; count = 0 }

let push t ~tick ~kind ~fiber ~value =
  let len = Array.length t.buf in
  if t.count = len && len < t.capacity then begin
    let buf = Array.make (Int.min t.capacity (2 * len)) dummy in
    Array.blit t.buf 0 buf 0 len;
    t.buf <- buf
  end;
  t.buf.(t.count mod t.capacity) <- { seq = t.count; tick; kind; fiber; value };
  t.count <- t.count + 1

let push_by_tick t events =
  List.iter
    (fun (tick, kind, fiber, value) -> push t ~tick ~kind ~fiber ~value)
    (List.stable_sort (fun (a, _, _, _) (b, _, _, _) -> Int.compare a b) events)

let total t = t.count
let dropped t = max 0 (t.count - t.capacity)
let overflowed t = t.count > t.capacity

let entries t =
  let n = min t.count t.capacity in
  let first = t.count - n in
  Array.init n (fun i -> t.buf.((first + i) mod t.capacity))

let to_json t =
  let module J = Prete_util.Json in
  J.Array
    (Array.to_list
       (Array.map
          (fun e ->
            J.Object
              [ ("seq", J.int e.seq); ("t", J.int e.tick); ("kind", J.String e.kind);
                ("fiber", J.int e.fiber); ("v", J.g 9 e.value) ])
          (entries t)))
