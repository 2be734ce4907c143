(* The 64-bit state lives unboxed in an 8-byte buffer: a [mutable int64]
   field would allocate a fresh box on every draw.  Byte order is
   irrelevant — the buffer is only ever read back by this module. *)
type t = Bytes.t

external get : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let of_state s =
  let t = Bytes.create 8 in
  set t 0 s;
  t

let create seed = of_state (mix (Int64.of_int seed))

let copy = Bytes.copy

let[@inline] int64 t =
  let s = Int64.add (get t 0) golden_gamma in
  set t 0 s;
  mix s

let split t = of_state (mix (int64 t))

(* Take the top 53 bits for a uniform double in [0,1). *)
let[@inline] float t =
  let bits = Int64.shift_right_logical (int64 t) 11 in
  Int64.to_float bits *. (1.0 /. 9007199254740992.0)

let uniform t lo hi =
  if lo > hi then invalid_arg "Rng.uniform: lo > hi";
  lo +. ((hi -. lo) *. float t)

(* The smallest all-ones mask, at least 1, covering [0, n - 1]. *)
let int_mask n =
  if n <= 0 then invalid_arg "Rng.int: bound must be positive";
  let mask = ref 1 in
  while !mask < n - 1 do
    mask := (!mask * 2) + 1
  done;
  !mask

let int t n =
  (* Rejection sampling over the low bits to avoid modulo bias.  Loops
     rather than local recursive closures, so a draw allocates nothing. *)
  let mask = Int64.of_int (int_mask n) in
  let v = ref (Int64.to_int (Int64.logand (int64 t) mask)) in
  while !v >= n do
    v := Int64.to_int (Int64.logand (int64 t) mask)
  done;
  !v

let bool t = Int64.logand (int64 t) 1L = 1L

let bernoulli t p = float t < p

(* [float t < p] compares u·2⁻⁵³ with p, where u = x lsr 11 < 2⁵³;
   scaling by a power of two is exact, so it holds iff u < p·2⁵³, iff
   u < ceil(p·2⁵³) for the integer u.  Clamping to [0, 2⁵³] covers
   p <= 0 and NaN (never) and p >= 1 (always). *)
let bernoulli_threshold p =
  let q = Float.ceil (p *. 9007199254740992.0) in
  if not (q > 0.0) then 0 else if q >= 9007199254740992.0 then 1 lsl 53
  else int_of_float q

type block = Bytes.t

let block_create n = Bytes.create (8 * max 0 n)

external unsafe_block_get : block -> int -> int64 = "%caml_bytes_get64u"

let fill_block t b ~n =
  if n < 0 || 8 * n > Bytes.length b then invalid_arg "Rng.fill_block: n out of range";
  let s = ref (get t 0) in
  for i = 0 to n - 1 do
    s := Int64.add !s golden_gamma;
    set b (8 * i) (mix !s)
  done;
  set t 0 !s

let give_back t k = set t 0 (Int64.sub (get t 0) (Int64.mul (Int64.of_int k) golden_gamma))

let[@inline] gaussian t =
  let u1 = ref (float t) in
  while not (!u1 > 0.0) do
    u1 := float t
  done;
  let u2 = float t in
  sqrt (-2.0 *. log !u1) *. cos (2.0 *. Float.pi *. u2)

let fill_gaussian t a ~pos ~len ~mean ~sd =
  for i = pos to pos + len - 1 do
    a.(i) <- mean +. (sd *. gaussian t)
  done

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let choice t a =
  if Array.length a = 0 then invalid_arg "Rng.choice: empty array";
  a.(int t (Array.length a))
