type t = { rows : int; cols : int; data : float array }

let create rows cols =
  if rows <= 0 || cols <= 0 then invalid_arg "Matrix.create: dims must be positive";
  { rows; cols; data = Array.make (rows * cols) 0.0 }

let init rows cols f =
  let m = create rows cols in
  for i = 0 to rows - 1 do
    for j = 0 to cols - 1 do
      m.data.((i * cols) + j) <- f i j
    done
  done;
  m

let of_arrays a =
  let rows = Array.length a in
  if rows = 0 then invalid_arg "Matrix.of_arrays: empty";
  let cols = Array.length a.(0) in
  Array.iter
    (fun r -> if Array.length r <> cols then invalid_arg "Matrix.of_arrays: ragged")
    a;
  init rows cols (fun i j -> a.(i).(j))

let rows m = m.rows
let cols m = m.cols

let to_arrays m =
  Array.init m.rows (fun i -> Array.sub m.data (i * m.cols) m.cols)

let get m i j =
  if i < 0 || i >= m.rows || j < 0 || j >= m.cols then
    invalid_arg "Matrix.get: out of bounds";
  m.data.((i * m.cols) + j)

let set m i j v =
  if i < 0 || i >= m.rows || j < 0 || j >= m.cols then
    invalid_arg "Matrix.set: out of bounds";
  m.data.((i * m.cols) + j) <- v

let copy m = { m with data = Array.copy m.data }

let identity n = init n n (fun i j -> if i = j then 1.0 else 0.0)

let matmul a b =
  if a.cols <> b.rows then invalid_arg "Matrix.matmul: dimension mismatch";
  let c = create a.rows b.cols in
  for i = 0 to a.rows - 1 do
    for k = 0 to a.cols - 1 do
      let aik = a.data.((i * a.cols) + k) in
      if aik <> 0.0 then
        for j = 0 to b.cols - 1 do
          c.data.((i * c.cols) + j) <-
            c.data.((i * c.cols) + j) +. (aik *. b.data.((k * b.cols) + j))
        done
    done
  done;
  c

let gemv m v =
  if Array.length v <> m.cols then invalid_arg "Matrix.gemv: dimension mismatch";
  Array.init m.rows (fun i ->
      let acc = ref 0.0 in
      for j = 0 to m.cols - 1 do
        acc := !acc +. (m.data.((i * m.cols) + j) *. v.(j))
      done;
      !acc)

let transpose m = init m.cols m.rows (fun i j -> get m j i)

let map f m = { m with data = Array.map f m.data }

let mapi f m = init m.rows m.cols (fun i j -> f i j (get m i j))

let zip name f a b =
  if a.rows <> b.rows || a.cols <> b.cols then
    invalid_arg (name ^ ": dimension mismatch");
  { a with data = Array.init (Array.length a.data) (fun i -> f a.data.(i) b.data.(i)) }

let add a b = zip "Matrix.add" ( +. ) a b
let sub a b = zip "Matrix.sub" ( -. ) a b
let scale s m = map (fun x -> s *. x) m

let row m i =
  if i < 0 || i >= m.rows then invalid_arg "Matrix.row: out of bounds";
  Array.sub m.data (i * m.cols) m.cols

let random rng rows cols scale =
  init rows cols (fun _ _ -> Rng.uniform rng (-.scale) scale)

let sum m = Array.fold_left ( +. ) 0.0 m.data

let equal ?(eps = 1e-12) a b =
  a.rows = b.rows && a.cols = b.cols
  && Array.for_all2 (fun x y -> Float.abs (x -. y) <= eps) a.data b.data

let pp fmt m =
  Format.fprintf fmt "@[<v>";
  for i = 0 to m.rows - 1 do
    Format.fprintf fmt "@[<h>";
    for j = 0 to m.cols - 1 do
      Format.fprintf fmt "%10.4f " (get m i j)
    done;
    Format.fprintf fmt "@]@,"
  done;
  Format.fprintf fmt "@]"

module Vec = struct
  let check2 name a b =
    if Array.length a <> Array.length b then invalid_arg (name ^ ": length mismatch")

  let dot a b =
    check2 "Vec.dot" a b;
    let acc = ref 0.0 in
    Array.iteri (fun i x -> acc := !acc +. (x *. b.(i))) a;
    !acc

  let add a b =
    check2 "Vec.add" a b;
    Array.mapi (fun i x -> x +. b.(i)) a

  let sub a b =
    check2 "Vec.sub" a b;
    Array.mapi (fun i x -> x -. b.(i)) a

  let scale s a = Array.map (fun x -> s *. x) a

  let argmax a =
    if Array.length a = 0 then invalid_arg "Vec.argmax: empty";
    let best = ref 0 in
    Array.iteri (fun i x -> if x > a.(!best) then best := i) a;
    !best

  let softmax a =
    if Array.length a = 0 then invalid_arg "Vec.softmax: empty";
    let m = Array.fold_left Float.max a.(0) a in
    let e = Array.map (fun x -> exp (x -. m)) a in
    let s = Array.fold_left ( +. ) 0.0 e in
    Array.map (fun x -> x /. s) e
end
