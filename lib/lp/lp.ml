type var = int

type sense = Le | Ge | Eq

type direction = Minimize | Maximize

type term = float * var

(* Variables and rows live in growable arrays; a row is the slice
   [rstart.(i) .. rstart.(i+1) - 1] of the flat [rvar]/[rcoef] arrays.
   Names are stored only when given ([""] otherwise) and rendered on
   demand. *)
type model = {
  mutable nvars : int;
  mutable names : string array;
  mutable lb : float array;
  mutable ub : float array;
  mutable binary : bool array;
  mutable nconstrs : int;
  mutable rstart : int array;  (* valid over [0, nconstrs] *)
  mutable rvar : int array;  (* valid over [0, rstart.(nconstrs)) *)
  mutable rcoef : float array;
  mutable rsense : sense array;
  mutable rrhs : float array;
  mutable cnames : string array;
  mutable obj_dir : direction;
  mutable obj_terms : term list;
  (* [add_constraint] scratch: by variable, the running sum and the call
     that last touched it; by position, the row's distinct variables in
     first-occurrence order and their hash buckets. *)
  mutable acc : float array;
  mutable stamp : int array;
  mutable gen : int;
  mutable order : int array;
  mutable bucket : int array;
}

let create () =
  { nvars = 0; names = [||]; lb = [||]; ub = [||]; binary = [||];
    nconstrs = 0; rstart = [| 0 |]; rvar = [||]; rcoef = [||];
    rsense = [||]; rrhs = [||]; cnames = [||];
    obj_dir = Minimize; obj_terms = [];
    acc = [||]; stamp = [||]; gen = 0; order = [||]; bucket = [||] }

(* [a] with room for at least [n] elements, the live prefix [0, len)
   copied. *)
let grow a len n fill =
  if Array.length a >= n then a
  else begin
    let b = Array.make (Stdlib.max n (2 * Array.length a)) fill in
    Array.blit a 0 b 0 len;
    b
  end

let add_var m ?(lb = 0.0) ?(ub = infinity) ?(binary = false) name =
  let lb, ub = if binary then (0.0, 1.0) else (lb, ub) in
  if lb > ub then invalid_arg "Lp.add_var: lb > ub";
  let v = m.nvars in
  let n = v + 1 in
  m.names <- grow m.names v n "";
  m.lb <- grow m.lb v n 0.0;
  m.ub <- grow m.ub v n 0.0;
  m.binary <- grow m.binary v n false;
  m.names.(v) <- name;
  m.lb.(v) <- lb;
  m.ub.(v) <- ub;
  m.binary.(v) <- binary;
  m.nvars <- n;
  v

(* Stable sort of [order.(0 .. d-1)] by descending [bucket]: insertion
   sort for the short rows that dominate, a counting pass over the
   [mask + 1] buckets otherwise. *)
let sort_by_bucket m d mask =
  let order = m.order and bucket = m.bucket in
  if d <= 16 then
    for k = 1 to d - 1 do
      let v = order.(k) and b = bucket.(k) in
      let p = ref (k - 1) in
      while !p >= 0 && bucket.(!p) < b do
        order.(!p + 1) <- order.(!p);
        bucket.(!p + 1) <- bucket.(!p);
        decr p
      done;
      order.(!p + 1) <- v;
      bucket.(!p + 1) <- b
    done
  else begin
    let start = Array.make (mask + 2) 0 in
    for k = 0 to d - 1 do
      let r = mask - bucket.(k) in
      start.(r + 1) <- start.(r + 1) + 1
    done;
    for r = 1 to mask + 1 do
      start.(r) <- start.(r) + start.(r - 1)
    done;
    let sorted = Array.make d 0 in
    for k = 0 to d - 1 do
      let r = mask - bucket.(k) in
      sorted.(start.(r)) <- order.(k);
      start.(r) <- start.(r) + 1
    done;
    Array.blit sorted 0 order 0 d
  end

(* Merge duplicate variables so the solvers see one coefficient each:
   repeats sum in input order from [0.0] and zero sums drop.  The stored
   order is the one the model layer has always produced — that of a
   16-bucket [Hashtbl] fold — because [pp], {!Simplex.feasible} and the
   dense engine read terms in storage order.  Walking such a
   table's buckets last-first yields descending [Hashtbl.hash v land
   mask], first insertions first within a bucket, where the bucket count
   doubles from 16 while the distinct count exceeds twice it. *)
let add_constraint m ?(name = "") terms sense rhs =
  let nv = m.nvars in
  if Array.length m.stamp < nv then begin
    m.stamp <- grow m.stamp (Array.length m.stamp) nv 0;
    m.acc <- grow m.acc (Array.length m.acc) nv 0.0
  end;
  m.gen <- m.gen + 1;
  let gen = m.gen and acc = m.acc and stamp = m.stamp in
  let d = ref 0 in
  List.iter
    (fun (c, v) ->
      if v < 0 || v >= nv then invalid_arg "Lp: variable out of range";
      if stamp.(v) = gen then acc.(v) <- acc.(v) +. c
      else begin
        stamp.(v) <- gen;
        acc.(v) <- 0.0 +. c;
        if !d = Array.length m.order then begin
          m.order <- grow m.order !d (!d + 1) 0;
          m.bucket <- grow m.bucket !d (!d + 1) 0
        end;
        m.order.(!d) <- v;
        incr d
      end)
    terms;
  let d = !d in
  let nb = ref 16 in
  while d > 2 * !nb do
    nb := 2 * !nb
  done;
  let mask = !nb - 1 in
  for k = 0 to d - 1 do
    m.bucket.(k) <- Hashtbl.hash m.order.(k) land mask
  done;
  sort_by_bucket m d mask;
  let idx = m.nconstrs in
  let p0 = m.rstart.(idx) in
  m.rvar <- grow m.rvar p0 (p0 + d) 0;
  m.rcoef <- grow m.rcoef p0 (p0 + d) 0.0;
  let p = ref p0 in
  for k = 0 to d - 1 do
    let v = m.order.(k) in
    let c = acc.(v) in
    if c <> 0.0 then begin
      m.rvar.(!p) <- v;
      m.rcoef.(!p) <- c;
      incr p
    end
  done;
  m.rstart <- grow m.rstart (idx + 1) (idx + 2) 0;
  m.rstart.(idx + 1) <- !p;
  m.rsense <- grow m.rsense idx (idx + 1) Le;
  m.rrhs <- grow m.rrhs idx (idx + 1) 0.0;
  m.cnames <- grow m.cnames idx (idx + 1) "";
  m.rsense.(idx) <- sense;
  m.rrhs.(idx) <- rhs;
  m.cnames.(idx) <- name;
  m.nconstrs <- idx + 1;
  idx

let set_objective m dir terms =
  List.iter
    (fun (_, v) ->
      if v < 0 || v >= m.nvars then invalid_arg "Lp.set_objective: variable out of range")
    terms;
  m.obj_dir <- dir;
  m.obj_terms <- terms

let num_vars m = m.nvars
let num_constraints m = m.nconstrs

let name_of m v = match m.names.(v) with "" -> Printf.sprintf "x%d" v | s -> s

let var_name m v =
  if v < 0 || v >= m.nvars then invalid_arg "Lp.var_name: out of range";
  name_of m v

let var_of_index m i =
  if i < 0 || i >= m.nvars then invalid_arg "Lp.var_of_index: out of range";
  i

let binaries m =
  let acc = ref [] in
  for i = m.nvars - 1 downto 0 do
    if m.binary.(i) then acc := i :: !acc
  done;
  !acc

module Internal = struct
  type rows = {
    nrows : int;
    start : int array;
    var : int array;
    coef : float array;
    sense : sense array;
    rhs : float array;
  }

  let rows m =
    { nrows = m.nconstrs; start = m.rstart; var = m.rvar; coef = m.rcoef;
      sense = m.rsense; rhs = m.rrhs }

  let lower m = Array.sub m.lb 0 m.nvars
  let upper m = Array.sub m.ub 0 m.nvars

  let objective m =
    let coefs = Array.make m.nvars 0.0 in
    List.iter (fun (c, v) -> coefs.(v) <- coefs.(v) +. c) m.obj_terms;
    (m.obj_dir, coefs)

  let without_objective m = { m with obj_dir = Minimize; obj_terms = [] }
end

let pp fmt m =
  let dir = match m.obj_dir with Minimize -> "min" | Maximize -> "max" in
  Format.fprintf fmt "@[<v>%s " dir;
  List.iter (fun (c, v) -> Format.fprintf fmt "%+g·%s " c (name_of m v)) m.obj_terms;
  Format.fprintf fmt "@,";
  for i = 0 to m.nconstrs - 1 do
    let cname = match m.cnames.(i) with "" -> Printf.sprintf "c%d" i | s -> s in
    Format.fprintf fmt "  %s: " cname;
    for k = m.rstart.(i) to m.rstart.(i + 1) - 1 do
      Format.fprintf fmt "%+g·%s " m.rcoef.(k) (name_of m m.rvar.(k))
    done;
    let s = match m.rsense.(i) with Le -> "<=" | Ge -> ">=" | Eq -> "=" in
    Format.fprintf fmt "%s %g@," s m.rrhs.(i)
  done;
  for v = 0 to m.nvars - 1 do
    Format.fprintf fmt "  %g <= %s <= %g@," m.lb.(v) (name_of m v) m.ub.(v)
  done;
  Format.fprintf fmt "@]"
