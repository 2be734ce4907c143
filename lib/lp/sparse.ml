type t = {
  rows : int;
  cols : int;
  colptr : int array;
  rowidx : int array;
  values : float array;
}

let of_triplets ~rows ~cols ts =
  List.iter
    (fun (r, c, _) ->
      if r < 0 || r >= rows || c < 0 || c >= cols then
        invalid_arg "Sparse.of_triplets: index out of range")
    ts;
  (* Two-pass counting sort by column, then an in-column sort by row and
     a merge of duplicates.  Everything below is a pure function of the
     triplet multiset, so structurally equal inputs yield bit-identical
     storage. *)
  let count = Array.make (cols + 1) 0 in
  List.iter (fun (_, c, _) -> count.(c + 1) <- count.(c + 1) + 1) ts;
  for j = 1 to cols do
    count.(j) <- count.(j) + count.(j - 1)
  done;
  let n_raw = count.(cols) in
  let raw_r = Array.make n_raw 0 and raw_v = Array.make n_raw 0.0 in
  let cursor = Array.copy count in
  List.iter
    (fun (r, c, v) ->
      let k = cursor.(c) in
      raw_r.(k) <- r;
      raw_v.(k) <- v;
      cursor.(c) <- k + 1)
    ts;
  (* Sort each column segment by row (insertion sort: segments are tiny)
     and fold duplicates. *)
  let colptr = Array.make (cols + 1) 0 in
  let out_r = Array.make n_raw 0 and out_v = Array.make n_raw 0.0 in
  let w = ref 0 in
  for j = 0 to cols - 1 do
    colptr.(j) <- !w;
    let lo = count.(j) and hi = cursor.(j) in
    for k = lo + 1 to hi - 1 do
      let r = raw_r.(k) and v = raw_v.(k) in
      let i = ref (k - 1) in
      while !i >= lo && raw_r.(!i) > r do
        raw_r.(!i + 1) <- raw_r.(!i);
        raw_v.(!i + 1) <- raw_v.(!i);
        decr i
      done;
      raw_r.(!i + 1) <- r;
      raw_v.(!i + 1) <- v
    done;
    let k = ref lo in
    while !k < hi do
      let r = raw_r.(!k) in
      let acc = ref 0.0 in
      while !k < hi && raw_r.(!k) = r do
        acc := !acc +. raw_v.(!k);
        incr k
      done;
      if !acc <> 0.0 then begin
        out_r.(!w) <- r;
        out_v.(!w) <- !acc;
        incr w
      end
    done
  done;
  colptr.(cols) <- !w;
  { rows; cols; colptr; rowidx = Array.sub out_r 0 !w; values = Array.sub out_v 0 !w }

let of_csc ~rows ~cols ~colptr ~rowidx ~values =
  let bad () =
    invalid_arg "Sparse.of_csc: malformed columns (rows must ascend, values be nonzero)"
  in
  if
    Array.length colptr < cols + 1
    || colptr.(0) <> 0
    || Array.length rowidx < colptr.(cols)
    || Array.length values < colptr.(cols)
  then bad ();
  for j = 0 to cols - 1 do
    if colptr.(j + 1) < colptr.(j) then bad ();
    for k = colptr.(j) to colptr.(j + 1) - 1 do
      let r = rowidx.(k) in
      if r < 0 || r >= rows || (k > colptr.(j) && r <= rowidx.(k - 1)) || values.(k) = 0.0
      then bad ()
    done
  done;
  { rows; cols; colptr; rowidx; values }

let nnz a = a.colptr.(a.cols)

let col_nnz a j = a.colptr.(j + 1) - a.colptr.(j)

let iter_col a j f =
  for k = a.colptr.(j) to a.colptr.(j + 1) - 1 do
    f a.rowidx.(k) a.values.(k)
  done

let col_dot a j y =
  let acc = ref 0.0 in
  for k = a.colptr.(j) to a.colptr.(j + 1) - 1 do
    acc := !acc +. (a.values.(k) *. y.(a.rowidx.(k)))
  done;
  !acc

let scatter_col a j x =
  for k = a.colptr.(j) to a.colptr.(j + 1) - 1 do
    x.(a.rowidx.(k)) <- x.(a.rowidx.(k)) +. a.values.(k)
  done

let to_dense a =
  let d = Array.init a.rows (fun _ -> Array.make a.cols 0.0) in
  for j = 0 to a.cols - 1 do
    iter_col a j (fun i v -> d.(i).(j) <- v)
  done;
  d

type mat = t

(* ---- Sparse LU basis factorization --------------------------------------

   [Lu] factors an m-row basis column set B (columns of a CSC matrix) as
   B = L⁻¹·H⁻¹·U up to the row/position permutation, where

   - L is the sequence of column-elimination ops (Gaussian multipliers)
     recorded at factorization time,
   - H is the sequence of Forrest–Tomlin row-eta transformations
     appended by {!update},
   - U is kept explicitly, both column-wise and row-wise, as a "permuted
     triangle": each pivot owns a stable {e id}, [ord] maps ids to their
     triangular position, and a basis update only cyclic-shifts the O(m)
     ordinal arrays — U entries are never renumbered.

   Factorization is right-looking Markowitz-flavored threshold pivoting:
   the active column with the fewest remaining nonzeros eliminates next
   (count buckets, lazily maintained), pivoting on the minimum-row-count
   entry within [tau] of the column's magnitude.  Ties break on the
   lowest column / row index and no randomness or clock is consulted, so
   the factor is a pure function of the input.

   FTRAN applies L then H in creation order and back-substitutes U in
   decreasing ordinal order; BTRAN runs Uᵀ forward and the transposed
   H/L ops in reverse.  Both are O(factor nonzeros + m).  {!ftran_col}
   also lists the result's nonzero rows, so a caller can visit only
   those.

   {!update} replaces the basis column of one row by a Forrest–Tomlin
   update: the spike (H·L)(entering column) was cached by the preceding
   {!ftran}; the old column is deleted, its id cyclic-shifted to the last
   ordinal, and the detached U row eliminated by a single new row eta.
   It refuses (returns [false]) when the new diagonal is too small
   relative to the spike or a multiplier explodes, signalling the caller
   to refactorize — the Bartels–Golub-style stability fallback.

   Storage is flat and reused: L and H ops live in four growable arrays
   each, U in two slice files (by column, by row), the elimination's
   active columns in one column file, and a factor whose capacity
   covers the next row count is rebuilt in place ([factorize ~into]),
   so a refactorization or a pivot allocates nothing once the arrays
   have grown to the problem.  Capacity never shows in a result: every
   region a factorization reads is written first. *)
module Lu = struct
  let grow_int a n = if Array.length a >= n then a else begin
      let b = Array.make (Stdlib.max n (2 * Array.length a)) 0 in
      Array.blit a 0 b 0 (Array.length a);
      b
    end

  let grow_float a n = if Array.length a >= n then a else begin
      let b = Array.make (Stdlib.max n (2 * Array.length a)) 0.0 in
      Array.blit a 0 b 0 (Array.length a);
      b
    end

  (* U is kept twice, by column (id -> (row, value)) and by row
     (row -> (id, value)), diagonal excluded, each as slices of one flat
     file: slice i is entries [beg.(i) .. beg.(i) + len.(i) - 1] of
     [fi]/[fv], with room for [cap.(i)].  A factorization lays the
     slices out back to back, exactly sized; a slice that an update
     grows past its room moves to the top of the file (entries and
     their order kept), leaving a hole that the next factorization
     reclaims.  Pushes append and removals swap the last entry in, so
     each slice's order is that of a growable array with swap-removal,
     and the file holds about the factor's nonzeros, whatever ids and
     rows held before. *)
  type ufile = {
    beg : int array;
    len : int array;
    cap : int array;
    mutable fi : int array;
    mutable fv : float array;
    mutable top : int;
  }

  let uf_make m =
    { beg = Array.make m 0; len = Array.make m 0; cap = Array.make m 0;
      fi = Array.make 64 0; fv = Array.make 64 0.0; top = 0 }

  (* Empty slices 0 .. m-1 with no room, and an empty file. *)
  let uf_reset u m =
    Array.fill u.beg 0 m 0;
    Array.fill u.len 0 m 0;
    Array.fill u.cap 0 m 0;
    u.top <- 0

  (* Room for [n] more entries at the top of the file. *)
  let uf_room u n =
    let need = u.top + n in
    if need > Array.length u.fi then begin
      let size = Stdlib.max need (2 * Array.length u.fi) in
      let fi = Array.make size 0 and fv = Array.make size 0.0 in
      Array.blit u.fi 0 fi 0 u.top;
      Array.blit u.fv 0 fv 0 u.top;
      u.fi <- fi;
      u.fv <- fv
    end

  (* Slices 0 .. m-1 back to back, each with room for [cap.(i)]. *)
  let uf_layout u m =
    let top = ref 0 in
    for i = 0 to m - 1 do
      u.beg.(i) <- !top;
      top := !top + u.cap.(i)
    done;
    u.top <- 0;
    uf_room u !top;
    u.top <- !top

  (* Append (idx, v) to slice i, moving it to the top when full. *)
  let uf_grow u i =
    let l = u.len.(i) in
    let cap = Stdlib.max 4 (2 * l) in
    uf_room u cap;
    Array.blit u.fi u.beg.(i) u.fi u.top l;
    Array.blit u.fv u.beg.(i) u.fv u.top l;
    u.beg.(i) <- u.top;
    u.cap.(i) <- cap;
    u.top <- u.top + cap

  let[@inline] uf_push u i idx v =
    if u.len.(i) = u.cap.(i) then uf_grow u i;
    let l = u.len.(i) in
    let k = u.beg.(i) + l in
    Array.unsafe_set u.fi k idx;
    Array.unsafe_set u.fv k v;
    u.len.(i) <- l + 1

  (* Remove the entry with index [idx] from slice i, if any; the last
     entry takes its place. *)
  let uf_remove u i idx =
    let b = u.beg.(i) and n = u.len.(i) in
    let fi = u.fi in
    let k = ref b in
    while !k < b + n && Array.unsafe_get fi !k <> idx do
      incr k
    done;
    if !k < b + n then begin
      let k = !k and e = b + n - 1 and fv = u.fv in
      Array.unsafe_set fi k (Array.unsafe_get fi e);
      Array.unsafe_set fv k (Array.unsafe_get fv e);
      u.len.(i) <- n - 1
    end

  (* Int stacks kept in a node pool: [head.(k)] is stack k's top node
     (-1 when empty), pushes go on top.  Same order semantics as [int
     list] with cons and head-first iteration, without a heap block per
     cons; the pool is reset, not freed, between factorizations. *)
  type pool = { mutable nval : int array; mutable nnext : int array; mutable used : int }

  let pool_make () = { nval = Array.make 64 0; nnext = Array.make 64 0; used = 0 }

  let pool_grow p =
    let n = 2 * p.used in
    let nval = Array.make n 0 and nnext = Array.make n 0 in
    Array.blit p.nval 0 nval 0 p.used;
    Array.blit p.nnext 0 nnext 0 p.used;
    p.nval <- nval;
    p.nnext <- nnext

  let[@inline] pool_push p head k v =
    if p.used = Array.length p.nval then pool_grow p;
    let u = p.used in
    Array.unsafe_set p.nval u v;
    Array.unsafe_set p.nnext u (Array.unsafe_get head k);
    Array.unsafe_set head k u;
    p.used <- u + 1

  (* Factorization and update scratch, sized by the factor's row
     capacity (and, for [mark], the matrix's column count; for the slot
     arrays, the target count; for the column file, the targets' entries
     plus fill).  Grown, never shrunk, and kept with the factor. *)
  type work = {
    mutable mark : Bytes.t;  (* by matrix column: is a target *)
    mutable cols : int array;  (* slot -> matrix column *)
    mutable coldone : Bytes.t;  (* by slot *)
    mutable id_of_slot : int array;
    mutable pend_start : int array;  (* by id: pending U row in [pend_*] *)
    mutable pend_len : int array;
    (* Active columns: slot s holds [clen.(s)] entries at
       [cbeg.(s) ..] of the column file [cfi]/[cfv], room for
       [ccap.(s)]; a column that outgrows its room moves to the top. *)
    mutable cbeg : int array;
    mutable clen : int array;
    mutable ccap : int array;
    mutable cfi : int array;
    mutable cfv : float array;
    mutable ctop : int;
    (* Row r's active slots: the fill stack [fhead.(r)] in [fpool],
       then the targets' initial slots [rslot.(rbeg.(r) .. rbeg.(r+1)-1)]
       read from the top down — the order of one stack onto which the
       initial slots were pushed in ascending slot order. *)
    mutable rbeg : int array;
    mutable rslot : int array;
    mutable fhead : int array;
    fpool : pool;
    mutable buckets : int array;  (* by count: top of its slot stack in [bpool] *)
    bpool : pool;
    mutable bcur : int;  (* lowest count that may hold a live slot *)
    mutable rowcnt : int array;
    mutable rowdone : Bytes.t;
    mutable wk : float array;  (* dense Schur merge workspace *)
    mutable stamp : int array;
    mutable pend_s : int array;  (* pending U entries: slot, value *)
    mutable pend_v : float array;
    mutable pend_n : int;
    mutable fill : int array;
    mutable upend : int array;  (* update: pending ids, a set marked in [inpend] *)
    mutable inpend : Bytes.t;
    mutable snz : int array;  (* update: rows of the new U column *)
  }

  let work_make m =
    {
      mark = Bytes.empty;
      cols = [||];
      coldone = Bytes.empty;
      id_of_slot = [||];
      pend_start = [||];
      pend_len = [||];
      cbeg = [||];
      clen = [||];
      ccap = [||];
      cfi = [||];
      cfv = [||];
      ctop = 0;
      rbeg = Array.make (m + 1) 0;
      rslot = [||];
      fhead = Array.make m (-1);
      fpool = pool_make ();
      buckets = Array.make (m + 2) (-1);
      bpool = pool_make ();
      bcur = 0;
      rowcnt = Array.make m 0;
      rowdone = Bytes.make m '\000';
      wk = Array.make m 0.0;
      stamp = Array.make m (-1);
      pend_s = Array.make 64 0;
      pend_v = Array.make 64 0.0;
      pend_n = 0;
      fill = Array.make (Stdlib.max 1 m) 0;
      upend = Array.make m 0;
      inpend = Bytes.make m '\000';
      snz = Array.make m 0;
    }

  (* Per-slot arrays sized for [nc] slots (grown, never shrunk). *)
  let work_slots w nc =
    if Array.length w.cols < nc then begin
      w.cols <- Array.make nc 0;
      w.coldone <- Bytes.make nc '\000';
      w.id_of_slot <- Array.make nc (-1);
      w.pend_start <- Array.make nc 0;
      w.pend_len <- Array.make nc 0;
      w.cbeg <- Array.make nc 0;
      w.clen <- Array.make nc 0;
      w.ccap <- Array.make nc 0
    end

  let[@inline] pend_push w s v =
    if w.pend_n = Array.length w.pend_s then begin
      w.pend_s <- grow_int w.pend_s (w.pend_n + 1);
      w.pend_v <- grow_float w.pend_v (w.pend_n + 1)
    end;
    let n = w.pend_n in
    Array.unsafe_set w.pend_s n s;
    Array.unsafe_set w.pend_v n v;
    w.pend_n <- n + 1

  type t = {
    mutable m : int;  (* rows; the arrays below hold at least m *)
    ord : int array;  (* id -> triangular position *)
    id_at : int array;  (* position -> id *)
    row_at : int array;  (* position -> pivot row: row_of.(id_at.(o)) *)
    row_of : int array;  (* id -> pivot row *)
    id_of_row : int array;  (* row -> id *)
    (* L ops, flat: op k is x.(l_rows.(e)) -= l_vals.(e) *. x.(l_piv.(k))
       for e in [l_start.(k), l_start.(k+1)).  H ops likewise, as
       x.(h_piv.(k)) -= Σ_e h_vals.(e) *. x.(h_rows.(e)). *)
    mutable l_piv : int array;
    mutable l_start : int array;
    mutable l_rows : int array;
    mutable l_vals : float array;
    mutable n_l : int;
    mutable h_piv : int array;
    mutable h_start : int array;
    mutable h_rows : int array;
    mutable h_vals : float array;
    mutable n_h : int;
    ucol : ufile;  (* U by id: (row, value) *)
    urow : ufile;  (* U by row: (id, value) *)
    udiag : float array;  (* by id *)
    mutable unnz : int;  (* U entries incl. diagonals *)
    mutable opnnz : int;  (* L + H op entries *)
    (* (H·L)(column) cached by the last ftran: nonzero at most on the
       [spike_n] rows [spike_rows], +0.0 elsewhere; [tmark.(r) = tgen]
       marks the rows that FTRAN touched. *)
    spike : float array;
    spike_rows : int array;
    mutable spike_n : int;
    tmark : int array;
    mutable tgen : int;
    rowacc : float array;  (* by id: update row-elimination accumulator *)
    work : work;
  }

  let nnz f = f.unnz + f.opnnz

  let updates f = f.n_h

  let create m =
    { m;
      ord = Array.make m 0;
      id_at = Array.make m 0;
      row_at = Array.make m 0;
      row_of = Array.make m (-1);
      id_of_row = Array.make m (-1);
      l_piv = Array.make 16 0;
      l_start = Array.make 17 0;
      l_rows = Array.make 64 0;
      l_vals = Array.make 64 0.0;
      n_l = 0;
      h_piv = Array.make 16 0;
      h_start = Array.make 17 0;
      h_rows = Array.make 64 0;
      h_vals = Array.make 64 0.0;
      n_h = 0;
      ucol = uf_make m;
      urow = uf_make m;
      udiag = Array.make m 0.0;
      unnz = 0;
      opnnz = 0;
      spike = Array.make m 0.0;
      spike_rows = Array.make m 0;
      spike_n = 0;
      tmark = Array.make m 0;
      tgen = 0;
      rowacc = Array.make m 0.0;
      work = work_make m }

  (* Room for one more L op of [n] entries. *)
  let reserve_l f n =
    let k = f.n_l in
    f.l_piv <- grow_int f.l_piv (k + 1);
    f.l_start <- grow_int f.l_start (k + 2);
    let e = f.l_start.(k) + n in
    f.l_rows <- grow_int f.l_rows e;
    f.l_vals <- grow_float f.l_vals e

  let reserve_h f n =
    let k = f.n_h in
    f.h_piv <- grow_int f.h_piv (k + 1);
    f.h_start <- grow_int f.h_start (k + 2);
    let e = f.h_start.(k) + n in
    f.h_rows <- grow_int f.h_rows e;
    f.h_vals <- grow_float f.h_vals e

  (* Empty [f] for a new factorization over [m] rows (at most its
     capacity).  Every row, and so every id below m, is claimed again
     (by a pivot or its crash column), so [row_of] and [id_of_row] need
     no clearing. *)
  let reset f m =
    f.m <- m;
    f.n_l <- 0;
    f.n_h <- 0;
    uf_reset f.ucol m;
    uf_reset f.urow m;
    f.unnz <- 0;
    f.opnnz <- 0;
    for k = 0 to f.spike_n - 1 do
      f.spike.(f.spike_rows.(k)) <- 0.0
    done;
    f.spike_n <- 0;
    Array.fill f.rowacc 0 m 0.0

  let[@inline] claim f r id =
    Array.unsafe_set f.ord id id;
    Array.unsafe_set f.id_at id id;
    Array.unsafe_set f.row_at id r;
    Array.unsafe_set f.row_of id r;
    Array.unsafe_set f.id_of_row r id;
    Bytes.unsafe_set f.work.rowdone r '\001'

  (* Unclaimed rows take their crash identity column: a singleton at its
     own row, so it pivots on itself with no fill and no L op. *)
  let claim_crash_rows f (a : mat) ~crash ~basis_out nextid =
    let nextid = ref nextid in
    for r = 0 to f.m - 1 do
      if Bytes.get f.work.rowdone r = '\000' then begin
        let id = !nextid in
        incr nextid;
        claim f r id;
        let c = crash.(r) in
        let v = ref 0.0 in
        for k = a.colptr.(c) to a.colptr.(c + 1) - 1 do
          if a.rowidx.(k) = r then v := a.values.(k)
        done;
        if Float.abs !v < 1e-11 then
          invalid_arg "Sparse.Lu.factorize: crash column is not an identity";
        f.udiag.(id) <- !v;
        f.unnz <- f.unnz + 1;
        basis_out.(r) <- c
      end
    done

  (* Targets [cols.(0 .. nc-1)] that are all singleton columns on
     distinct rows, each of magnitude >= 1e-11 (a crash basis): the
     elimination would pop them in slot order from the count-1 bucket and
     pivot each on its only entry with no L op, no pending U row and no
     fill, so the factor is that diagonal.  Builds it without the
     column file and returns [true]; [false] (nothing claimed)
     otherwise. *)
  let factor_diagonal f (a : mat) ~cols ~nc ~crash ~basis_out =
    let rowdone = f.work.rowdone in
    Bytes.fill rowdone 0 f.m '\000';
    let diagonal = ref true and s = ref 0 in
    while !diagonal && !s < nc do
      let k = a.colptr.(cols.(!s)) in
      if
        a.colptr.(cols.(!s) + 1) - k <> 1
        || not (Float.abs a.values.(k) >= 1e-11)
        || Bytes.get rowdone a.rowidx.(k) <> '\000'
      then diagonal := false
      else Bytes.set rowdone a.rowidx.(k) '\001';
      incr s
    done;
    Bytes.fill rowdone 0 f.m '\000';
    if !diagonal then begin
      for s = 0 to nc - 1 do
        let c = cols.(s) in
        let k = a.colptr.(c) in
        let r = a.rowidx.(k) in
        claim f r s;
        f.udiag.(s) <- a.values.(k);
        f.unnz <- f.unnz + 1;
        basis_out.(r) <- c
      done;
      claim_crash_rows f a ~crash ~basis_out nc
    end;
    !diagonal

  (* Give active column [s] room for [need] entries: move it to the top
     of the column file (keeping its entries and their order) when its
     own room is short. *)
  let col_room w s need =
    if need > w.ccap.(s) then begin
      let cap = Stdlib.max need (2 * w.ccap.(s)) in
      let top = w.ctop in
      w.cfi <- grow_int w.cfi (top + cap);
      w.cfv <- grow_float w.cfv (top + cap);
      Array.blit w.cfi w.cbeg.(s) w.cfi top w.clen.(s);
      Array.blit w.cfv w.cbeg.(s) w.cfv top w.clen.(s);
      w.cbeg.(s) <- top;
      w.ccap.(s) <- cap;
      w.ctop <- top + cap
    end

  (* Position of row [r] in the column file's slice of active column
     [s], or -1 when the column has no such entry. *)
  let col_find w s r =
    let b = Array.unsafe_get w.cbeg s in
    let e = b + Array.unsafe_get w.clen s in
    let cfi = w.cfi in
    let k = ref b in
    while !k < e && Array.unsafe_get cfi !k <> r do
      incr k
    done;
    if !k = e then -1 else !k

  (* Row walk step of pivot (slot [s], row [r]): move active column
     [s']'s entry in row r, if any, into the pending U row and requeue
     the column at its new count ([w.bcur] is the pop cursor). *)
  let extract w ~s ~r s' =
    if Bytes.unsafe_get w.coldone s' = '\000' && s' <> s then begin
      let k = col_find w s' r in
      if k >= 0 then begin
        (* Swap-remove the entry (stored values are never zero). *)
        let cfi = w.cfi and cfv = w.cfv in
        let v = Array.unsafe_get cfv k in
        let n = Array.unsafe_get w.clen s' - 1 in
        let e = Array.unsafe_get w.cbeg s' + n in
        Array.unsafe_set cfi k (Array.unsafe_get cfi e);
        Array.unsafe_set cfv k (Array.unsafe_get cfv e);
        Array.unsafe_set w.clen s' n;
        pend_push w s' v;
        pool_push w.bpool w.buckets n s';
        if n < w.bcur then w.bcur <- n
      end
    end

  (* Markowitz elimination of the target slots [cols.(0 .. nc-1)].

     Each active column is a slice of one flat column file, filled by a
     straight copy of the matrix's column; a row's active slots are the
     targets' row pattern (built by counting) under a stack of fill
     slots.  Every step — the bucket pops, the pivot choice, the L op
     in column order, the row walk that moves the pivot row's entries
     into the pending U rows, the Schur merge (survivors in column
     order, then fill in L order) — reads and writes the same entries
     in the same order as an elimination over per-column arrays and a
     per-row slot stack would, so the factor is a pure function of the
     input, field for field. *)
  let eliminate ~tau f (a : mat) ~cols ~nc ~crash ~basis_out =
    let m = f.m and w = f.work in
    let colptr = a.colptr and rowidx = a.rowidx and values = a.values in
    let rowdone = w.rowdone and coldone = w.coldone and rowcnt = w.rowcnt in
    let cbeg = w.cbeg and clen = w.clen and ccap = w.ccap in
    Array.fill rowcnt 0 m 0;
    Bytes.fill rowdone 0 m '\000';
    Bytes.fill coldone 0 nc '\000';
    (* The column file: the targets' entries, slot after slot. *)
    let ne = ref 0 in
    for s = 0 to nc - 1 do
      let c = cols.(s) in
      ne := !ne + colptr.(c + 1) - colptr.(c)
    done;
    let ne = !ne in
    w.cfi <- grow_int w.cfi ne;
    w.cfv <- grow_float w.cfv ne;
    let cfi = w.cfi and cfv = w.cfv in
    let top = ref 0 in
    for s = 0 to nc - 1 do
      let c = cols.(s) in
      let k0 = colptr.(c) and k1 = colptr.(c + 1) in
      cbeg.(s) <- !top;
      clen.(s) <- k1 - k0;
      ccap.(s) <- k1 - k0;
      for k = k0 to k1 - 1 do
        let r = Array.unsafe_get rowidx k in
        Array.unsafe_set cfi !top r;
        Array.unsafe_set cfv !top (Array.unsafe_get values k);
        incr top;
        rowcnt.(r) <- rowcnt.(r) + 1
      done
    done;
    w.ctop <- ne;
    (* Rows' initial slots, ascending within each row. *)
    let rbeg = w.rbeg in
    rbeg.(0) <- 0;
    for r = 0 to m - 1 do
      rbeg.(r + 1) <- rbeg.(r) + rowcnt.(r)
    done;
    w.rslot <- grow_int w.rslot ne;
    let rslot = w.rslot and cursor = w.fill in
    Array.blit rbeg 0 cursor 0 m;
    for s = 0 to nc - 1 do
      for k = cbeg.(s) to cbeg.(s) + clen.(s) - 1 do
        let r = Array.unsafe_get cfi k in
        let q = cursor.(r) in
        Array.unsafe_set rslot q s;
        cursor.(r) <- q + 1
      done
    done;
    let fhead = w.fhead and fpool = w.fpool in
    Array.fill fhead 0 m (-1);
    fpool.used <- 0;
    (* Count buckets over column slots, lazily revalidated on pop. *)
    let buckets = w.buckets and bpool = w.bpool in
    Array.fill buckets 0 (m + 2) (-1);
    bpool.used <- 0;
    for s = nc - 1 downto 0 do
      pool_push bpool buckets clen.(s) s
    done;
    let cur = ref 0 in
    let nextid = ref 0 in
    let dropped = ref [] in
    let id_of_slot = w.id_of_slot in
    Array.fill id_of_slot 0 nc (-1);
    (* Pending U rows: at pivot time the surviving entries of the pivot
       row are keyed by column {e slot}; they are scattered into the
       id-indexed U once every slot has its id.  Each pivot's entries
       are appended in discovery order and read back last-first. *)
    w.pend_n <- 0;
    (* Dense merge workspace for the Schur update. *)
    let wk = w.wk and stamp = w.stamp in
    Array.fill stamp 0 m (-1);
    let fill = w.fill in
    let steps = ref 0 in
    while !steps < nc do
      let slot = ref (-1) in
      while !slot = -1 do
        let p = buckets.(!cur) in
        if p = -1 then incr cur
        else begin
          let s = Array.unsafe_get bpool.nval p in
          buckets.(!cur) <- Array.unsafe_get bpool.nnext p;
          if Bytes.unsafe_get coldone s = '\000' && Array.unsafe_get clen s = !cur then
            slot := s
        end
      done;
      let s = !slot in
      Bytes.unsafe_set coldone s '\001';
      incr steps;
      let cfi = w.cfi and cfv = w.cfv in
      let b = cbeg.(s) and n = clen.(s) in
      let cmax = ref 0.0 in
      for k = b to b + n - 1 do
        let av = Float.abs (Array.unsafe_get cfv k) in
        if av > !cmax then cmax := av
      done;
      if !cmax < 1e-11 then begin
        (* Cancelled or empty column: numerically singular, drop it. *)
        dropped := cols.(s) :: !dropped;
        for k = b to b + n - 1 do
          let i = Array.unsafe_get cfi k in
          rowcnt.(i) <- rowcnt.(i) - 1
        done;
        clen.(s) <- 0
      end
      else begin
        let thresh = tau *. !cmax in
        let prow = ref (-1) and pval = ref 0.0 and pcnt = ref max_int in
        for k = b to b + n - 1 do
          let r = Array.unsafe_get cfi k and v = Array.unsafe_get cfv k in
          if Float.abs v >= thresh then begin
            let rc = Array.unsafe_get rowcnt r in
            if rc < !pcnt || (rc = !pcnt && (!prow = -1 || r < !prow)) then begin
              prow := r;
              pval := v;
              pcnt := rc
            end
          end
        done;
        let r = !prow and piv = !pval in
        let id = !nextid in
        incr nextid;
        claim f r id;
        id_of_slot.(s) <- id;
        f.udiag.(id) <- piv;
        f.unnz <- f.unnz + 1;
        (* L multipliers: the pivot column's entries off the pivot row
           (a column holds each row at most once), as op [f.n_l]. *)
        let lcnt = n - 1 in
        let lb =
          if lcnt > 0 then begin
            reserve_l f lcnt;
            let lb = f.l_start.(f.n_l) in
            let lrows = f.l_rows and lvals = f.l_vals in
            let kk = ref lb in
            let inv = 1.0 /. piv in
            for k = b to b + n - 1 do
              let i = Array.unsafe_get cfi k in
              if i <> r then begin
                Array.unsafe_set lrows !kk i;
                Array.unsafe_set lvals !kk (Array.unsafe_get cfv k *. inv);
                incr kk;
                rowcnt.(i) <- rowcnt.(i) - 1
              end
            done;
            f.l_piv.(f.n_l) <- r;
            f.l_start.(f.n_l + 1) <- lb + lcnt;
            f.n_l <- f.n_l + 1;
            f.opnnz <- f.opnnz + lcnt;
            lb
          end
          else 0
        in
        rowcnt.(r) <- rowcnt.(r) - 1;
        clen.(s) <- 0;
        (* Extract the pivot row from the remaining active columns: the
           row's fill slots (latest first), then its initial slots from
           the highest down. *)
        let p0 = w.pend_n in
        w.bcur <- !cur;
        let p = ref fhead.(r) in
        while !p >= 0 do
          let s' = Array.unsafe_get fpool.nval !p in
          p := Array.unsafe_get fpool.nnext !p;
          extract w ~s ~r s'
        done;
        fhead.(r) <- -1;
        for q = rbeg.(r + 1) - 1 downto rbeg.(r) do
          extract w ~s ~r (Array.unsafe_get rslot q)
        done;
        cur := w.bcur;
        w.pend_start.(id) <- p0;
        w.pend_len.(id) <- w.pend_n - p0;
        (* ... and apply the rank-1 Schur update to each of them. *)
        if lcnt > 0 then
          for e = w.pend_n - 1 downto p0 do
            let s' = w.pend_s.(e) and uv = w.pend_v.(e) in
            let cfi = w.cfi and cfv = w.cfv in
            let b' = cbeg.(s') and old = clen.(s') in
            for k = b' to b' + old - 1 do
              let i = Array.unsafe_get cfi k in
              stamp.(i) <- s';
              wk.(i) <- Array.unsafe_get cfv k
            done;
            let nfill = ref 0 in
            let lrows = f.l_rows and lvals = f.l_vals in
            for k = lb to lb + lcnt - 1 do
              let i = Array.unsafe_get lrows k in
              let delta = Array.unsafe_get lvals k *. uv in
              if stamp.(i) = s' then wk.(i) <- wk.(i) -. delta
              else begin
                stamp.(i) <- s';
                wk.(i) <- -.delta;
                fill.(!nfill) <- i;
                incr nfill
              end
            done;
            (* Rebuild the column in place: survivors first, fill after. *)
            let j = ref b' in
            for k = b' to b' + old - 1 do
              let i = Array.unsafe_get cfi k in
              if stamp.(i) = s' then begin
                let v = wk.(i) in
                stamp.(i) <- -1;
                if Float.abs v > 1e-14 then begin
                  Array.unsafe_set cfi !j i;
                  Array.unsafe_set cfv !j v;
                  incr j
                end
                else rowcnt.(i) <- rowcnt.(i) - 1
              end
            done;
            clen.(s') <- !j - b';
            col_room w s' (clen.(s') + !nfill);
            let cfi = w.cfi and cfv = w.cfv in
            for k = 0 to !nfill - 1 do
              let i = fill.(k) in
              if stamp.(i) = s' then begin
                let v = wk.(i) in
                stamp.(i) <- -1;
                if Float.abs v > 1e-14 then begin
                  let q = cbeg.(s') + clen.(s') in
                  cfi.(q) <- i;
                  cfv.(q) <- v;
                  clen.(s') <- clen.(s') + 1;
                  pool_push fpool fhead i s';
                  rowcnt.(i) <- rowcnt.(i) + 1
                end
              end
            done;
            let k = clen.(s') in
            pool_push bpool buckets k s';
            if k < !cur then cur := k
          done
      end
    done;
    claim_crash_rows f a ~crash ~basis_out !nextid;
    (* Scatter pending U rows now that every surviving slot has an id;
       entries pointing at dropped columns vanish with their column.
       A counting pass sizes every slice first, so the pushes below
       fill the laid-out slices in place. *)
    let pend_s = w.pend_s and pend_v = w.pend_v in
    let ucol = f.ucol and urow = f.urow in
    for s = 0 to nc - 1 do
      let id = id_of_slot.(s) in
      if id >= 0 then begin
        let r = f.row_of.(id) in
        let p0 = w.pend_start.(id) in
        for e = p0 to p0 + w.pend_len.(id) - 1 do
          let id' = id_of_slot.(Array.unsafe_get pend_s e) in
          if id' >= 0 then begin
            ucol.cap.(id') <- ucol.cap.(id') + 1;
            urow.cap.(r) <- urow.cap.(r) + 1
          end
        done
      end
    done;
    uf_layout ucol m;
    uf_layout urow m;
    for s = 0 to nc - 1 do
      let id = id_of_slot.(s) in
      if id >= 0 then begin
        let r = f.row_of.(id) in
        basis_out.(r) <- cols.(s);
        let p0 = w.pend_start.(id) in
        for e = p0 + w.pend_len.(id) - 1 downto p0 do
          let id' = id_of_slot.(Array.unsafe_get pend_s e) in
          if id' >= 0 then begin
            let v = Array.unsafe_get pend_v e in
            uf_push ucol id' r v;
            uf_push urow r id' v;
            f.unnz <- f.unnz + 1
          end
        done
      end
    done;
    !dropped

  (* Factorize the column set found in [targets] (the row pairing is
     ignored; duplicates collapse).  Rows claimed by no target — and rows
     of targets dropped as numerically singular — take their [crash]
     identity column instead, which eliminates trivially (crash columns
     are singletons by construction).  [basis_out.(r)] receives the
     column pivoted on row r; the returned list is the dropped targets
     (empty on success).  With [into], the factorization is rebuilt in
     that factor's storage when it holds enough rows (its previous
     contents are discarded). *)
  let factorize ?(tau = 0.1) ?into (a : mat) ~targets ~crash ~basis_out =
    let m = a.rows in
    let f =
      match into with
      | Some f when Array.length f.ord >= m ->
        reset f m;
        f
      | _ -> create m
    in
    let w = f.work in
    (* Distinct target columns, lowest-index first: mark, then scan the
       marks in column order. *)
    if Bytes.length w.mark < a.cols then w.mark <- Bytes.make a.cols '\000';
    let mark = w.mark in
    let nc = ref 0 in
    for i = 0 to Array.length targets - 1 do
      let c = targets.(i) in
      if c >= 0 && Bytes.get mark c = '\000' then begin
        Bytes.set mark c '\001';
        incr nc
      end
    done;
    let nc = !nc in
    work_slots w nc;
    let cols = w.cols in
    let k = ref 0 in
    for c = 0 to a.cols - 1 do
      if Bytes.unsafe_get mark c <> '\000' then begin
        Bytes.unsafe_set mark c '\000';
        cols.(!k) <- c;
        incr k
      end
    done;
    if factor_diagonal f a ~cols ~nc ~crash ~basis_out then (f, [])
    else (f, eliminate ~tau f a ~cols ~nc ~crash ~basis_out)

  (* The solves are the engine's hottest loops, hence unchecked reads:
     ids, ordinals and every row an op or a U slice holds are < m, op
     k's entries are [start.(k), start.(k+1)) with k < n, and a slice
     lies inside its file. *)

  (* FTRAN's spike bookkeeping: [ftran_begin] clears the previous
     spike's rows and opens a touch generation; [touch] lists a row the
     first time this FTRAN may make it nonzero. *)
  let ftran_begin f =
    let spike = f.spike and rows = f.spike_rows in
    for k = 0 to f.spike_n - 1 do
      Array.unsafe_set spike (Array.unsafe_get rows k) 0.0
    done;
    f.spike_n <- 0;
    f.tgen <- f.tgen + 1

  let[@inline] touch f r =
    if Array.unsafe_get f.tmark r <> f.tgen then begin
      Array.unsafe_set f.tmark r f.tgen;
      Array.unsafe_set f.spike_rows f.spike_n r;
      f.spike_n <- f.spike_n + 1
    end

  (* Touch the rows of a dense right-hand side that are nonzero. *)
  let touch_dense f x =
    for i = 0 to f.m - 1 do
      if Array.unsafe_get x i <> 0.0 then touch f i
    done

  (* FTRAN's L and H stages, then the spike cache for {!update}: the
     touched rows' values (every other row of x is ±0 here, and the
     cache holds +0.0 there). *)
  let ftran_lh f x =
    let l_piv = f.l_piv and l_start = f.l_start in
    let l_rows = f.l_rows and l_vals = f.l_vals in
    for k = 0 to f.n_l - 1 do
      let xr = Array.unsafe_get x (Array.unsafe_get l_piv k) in
      if xr <> 0.0 then
        for e = Array.unsafe_get l_start k to Array.unsafe_get l_start (k + 1) - 1 do
          let r = Array.unsafe_get l_rows e in
          Array.unsafe_set x r (Array.unsafe_get x r -. (Array.unsafe_get l_vals e *. xr));
          touch f r
        done
    done;
    let h_piv = f.h_piv and h_start = f.h_start in
    let h_rows = f.h_rows and h_vals = f.h_vals in
    for k = 0 to f.n_h - 1 do
      let p = Array.unsafe_get h_piv k in
      let acc = ref (Array.unsafe_get x p) in
      for e = Array.unsafe_get h_start k to Array.unsafe_get h_start (k + 1) - 1 do
        acc :=
          !acc -. (Array.unsafe_get h_vals e *. Array.unsafe_get x (Array.unsafe_get h_rows e))
      done;
      Array.unsafe_set x p !acc;
      touch f p
    done;
    let spike = f.spike and rows = f.spike_rows in
    for k = 0 to f.spike_n - 1 do
      let r = Array.unsafe_get rows k in
      Array.unsafe_set spike r (Array.unsafe_get x r)
    done

  (* U back-substitution in decreasing ordinal order, in place: column
     k's entries live in rows of strictly smaller ordinal, so writing
     the solved value at the pivot row never collides. *)
  let back_u f x =
    let row_at = f.row_at and id_at = f.id_at in
    let udiag = f.udiag and u = f.ucol in
    let ubeg = u.beg and ulen = u.len and ui = u.fi and uv = u.fv in
    for o = f.m - 1 downto 0 do
      let r = Array.unsafe_get row_at o in
      let xr = Array.unsafe_get x r in
      if xr <> 0.0 then begin
        let id = Array.unsafe_get id_at o in
        let z = xr /. Array.unsafe_get udiag id in
        Array.unsafe_set x r z;
        let b = Array.unsafe_get ubeg id in
        for k = b to b + Array.unsafe_get ulen id - 1 do
          let i = Array.unsafe_get ui k in
          Array.unsafe_set x i (Array.unsafe_get x i -. (Array.unsafe_get uv k *. z))
        done
      end
    done

  (* [back_u] that also lists the rows it leaves nonzero.  Row r is
     final once its ordinal is passed (later columns only reach smaller
     ordinals), so it is listed there iff its solved value is nonzero;
     rows skipped at ±0 stay ±0.  The arithmetic is [back_u]'s,
     operation for operation. *)
  let back_u_nz f x nz =
    let row_at = f.row_at and id_at = f.id_at in
    let udiag = f.udiag and u = f.ucol in
    let ubeg = u.beg and ulen = u.len and ui = u.fi and uv = u.fv in
    let cnt = ref 0 in
    for o = f.m - 1 downto 0 do
      let r = Array.unsafe_get row_at o in
      let xr = Array.unsafe_get x r in
      if xr <> 0.0 then begin
        let id = Array.unsafe_get id_at o in
        let z = xr /. Array.unsafe_get udiag id in
        Array.unsafe_set x r z;
        if z <> 0.0 then begin
          nz.(!cnt) <- r;
          incr cnt
        end;
        let b = Array.unsafe_get ubeg id in
        for k = b to b + Array.unsafe_get ulen id - 1 do
          let i = Array.unsafe_get ui k in
          Array.unsafe_set x i (Array.unsafe_get x i -. (Array.unsafe_get uv k *. z))
        done
      end
    done;
    !cnt

  (* FTRAN: x := B⁻¹x.  Caches the post-L/H spike for a following
     {!update} — callers must FTRAN the entering column immediately
     before updating (the simplex pivot loop does). *)
  let ftran f x =
    ftran_begin f;
    touch_dense f x;
    ftran_lh f x;
    back_u f x

  (* [ftran] of column j of [a] into a zero [x], listing the result's
     nonzero rows: the scatter is the only input, so only its rows
     start the touched list. *)
  let ftran_col f (a : mat) j x nz =
    ftran_begin f;
    for k = a.colptr.(j) to a.colptr.(j + 1) - 1 do
      let r = a.rowidx.(k) in
      x.(r) <- x.(r) +. a.values.(k);
      touch f r
    done;
    ftran_lh f x;
    back_u_nz f x nz

  (* BTRAN: y := B⁻ᵀy.  Uᵀ forward-substitution in increasing ordinal
     order, then the transposed H and L ops in reverse creation order. *)
  let btran f y =
    let row_at = f.row_at and id_at = f.id_at in
    let udiag = f.udiag and u = f.ucol in
    let ubeg = u.beg and ulen = u.len and ui = u.fi and uv = u.fv in
    for o = 0 to f.m - 1 do
      let id = Array.unsafe_get id_at o in
      let r = Array.unsafe_get row_at o in
      let acc = ref (Array.unsafe_get y r) in
      let b = Array.unsafe_get ubeg id in
      for k = b to b + Array.unsafe_get ulen id - 1 do
        acc := !acc -. (Array.unsafe_get uv k *. Array.unsafe_get y (Array.unsafe_get ui k))
      done;
      Array.unsafe_set y r (!acc /. Array.unsafe_get udiag id)
    done;
    let h_piv = f.h_piv and h_start = f.h_start in
    let h_rows = f.h_rows and h_vals = f.h_vals in
    for k = f.n_h - 1 downto 0 do
      let yp = Array.unsafe_get y (Array.unsafe_get h_piv k) in
      if yp <> 0.0 then
        for e = Array.unsafe_get h_start k to Array.unsafe_get h_start (k + 1) - 1 do
          let r = Array.unsafe_get h_rows e in
          Array.unsafe_set y r (Array.unsafe_get y r -. (Array.unsafe_get h_vals e *. yp))
        done
    done;
    let l_piv = f.l_piv and l_start = f.l_start in
    let l_rows = f.l_rows and l_vals = f.l_vals in
    for k = f.n_l - 1 downto 0 do
      let p = Array.unsafe_get l_piv k in
      let acc = ref (Array.unsafe_get y p) in
      for e = Array.unsafe_get l_start k to Array.unsafe_get l_start (k + 1) - 1 do
        acc :=
          !acc -. (Array.unsafe_get l_vals e *. Array.unsafe_get y (Array.unsafe_get l_rows e))
      done;
      Array.unsafe_set y p !acc
    done

  (* Forrest–Tomlin update: the column basic in [leaving_row] is replaced
     by the column whose spike the last {!ftran} cached.  Returns [false]
     (factor must be rebuilt) on a small new diagonal or an exploding
     elimination multiplier; the factor may be half-mutated then, which
     is fine because the caller refactorizes from scratch. *)
  let update f ~leaving_row =
    let rl = leaving_row in
    let p = f.id_of_row.(rl) in
    let t = f.ord.(p) in
    let last = f.m - 1 in
    let w = f.work in
    let pend = w.upend and inpend = w.inpend in
    let npend = ref 0 in
    (* Detach row rl of U into the elimination accumulator (by id) and
       delete column p. *)
    let ucol = f.ucol and urow = f.urow in
    let b = urow.beg.(rl) in
    for k = b to b + urow.len.(rl) - 1 do
      let id = urow.fi.(k) in
      uf_remove ucol id rl;
      f.unnz <- f.unnz - 1;
      f.rowacc.(id) <- urow.fv.(k);
      Bytes.set inpend id '\001';
      pend.(!npend) <- id;
      incr npend
    done;
    urow.len.(rl) <- 0;
    let b = ucol.beg.(p) in
    for k = b to b + ucol.len.(p) - 1 do
      uf_remove urow ucol.fi.(k) p;
      f.unnz <- f.unnz - 1
    done;
    ucol.len.(p) <- 0;
    f.unnz <- f.unnz - 1 (* old diagonal *);
    (* Cyclic shift: id p moves to the last position (its row stays
       rl). *)
    for o = t to last - 1 do
      let id = f.id_at.(o + 1) in
      f.id_at.(o) <- id;
      f.row_at.(o) <- f.row_at.(o + 1);
      f.ord.(id) <- o
    done;
    f.id_at.(last) <- p;
    f.row_at.(last) <- rl;
    f.ord.(p) <- last;
    (* Eliminate the detached row against U in increasing ordinal order;
       fill lands at strictly larger ordinals, so a min-scan worklist
       terminates.  The worklist is a set (ordinals are distinct, so the
       scan order cannot matter); multipliers accumulate into one row
       eta, written straight into op [f.n_h]'s slot and committed only
       if the update is accepted. *)
    reserve_h f 0;
    let hb = f.h_start.(f.n_h) in
    let hcnt = ref 0 in
    let ok = ref true in
    while !ok && !npend > 0 do
      let bk = ref 0 in
      for k = 1 to !npend - 1 do
        if f.ord.(pend.(k)) < f.ord.(pend.(!bk)) then bk := k
      done;
      let j = pend.(!bk) in
      decr npend;
      pend.(!bk) <- pend.(!npend);
      Bytes.set inpend j '\000';
      let mj = f.rowacc.(j) /. f.udiag.(j) in
      f.rowacc.(j) <- 0.0;
      if Float.abs mj > 1e-14 then begin
        if Float.abs mj > 1e8 then ok := false;
        if hb + !hcnt = Array.length f.h_rows then reserve_h f (!hcnt + 1);
        let rj = f.row_of.(j) in
        f.h_rows.(hb + !hcnt) <- rj;
        f.h_vals.(hb + !hcnt) <- mj;
        incr hcnt;
        let b = urow.beg.(rj) in
        for k = b to b + urow.len.(rj) - 1 do
          let id' = urow.fi.(k) in
          if Bytes.get inpend id' = '\000' then begin
            Bytes.set inpend id' '\001';
            pend.(!npend) <- id';
            incr npend
          end;
          f.rowacc.(id') <- f.rowacc.(id') -. (mj *. urow.fv.(k))
        done
      end
    done;
    for k = 0 to !npend - 1 do
      Bytes.set inpend pend.(k) '\000'
    done;
    if not !ok then false
    else begin
      (* New column p = (row eta)·spike: only the rl entry changes. *)
      let s = f.spike in
      let newdiag = ref s.(rl) in
      for k = hb to hb + !hcnt - 1 do
        newdiag := !newdiag -. (f.h_vals.(k) *. s.(f.h_rows.(k)))
      done;
      (* One pass over the spike's rows, sorted ascending (the rest of
         it is zero): its max magnitude for the stability test, and the
         rows of the new U column in ascending order. *)
      let sr = f.spike_rows and sn = f.spike_n in
      for k = 1 to sn - 1 do
        let v = sr.(k) in
        let j = ref (k - 1) in
        while !j >= 0 && sr.(!j) > v do
          sr.(!j + 1) <- sr.(!j);
          decr j
        done;
        sr.(!j + 1) <- v
      done;
      let smax = ref 0.0 and ns = ref 0 in
      let snz = w.snz in
      for k = 0 to sn - 1 do
        let i = sr.(k) in
        let av = Float.abs s.(i) in
        if av > !smax then smax := av;
        if av > 1e-14 && i <> rl then begin
          snz.(!ns) <- i;
          incr ns
        end
      done;
      if Float.abs !newdiag < 1e-11 || Float.abs !newdiag < 1e-9 *. !smax then
        false
      else begin
        if !hcnt > 0 then begin
          f.h_piv.(f.n_h) <- rl;
          f.h_start.(f.n_h + 1) <- hb + !hcnt;
          f.n_h <- f.n_h + 1;
          f.opnnz <- f.opnnz + !hcnt
        end;
        f.udiag.(p) <- !newdiag;
        f.unnz <- f.unnz + 1 + !ns;
        for k = 0 to !ns - 1 do
          let i = snz.(k) in
          uf_push ucol p i s.(i);
          uf_push urow i p s.(i)
        done;
        true
      end
    end

  module Internal = struct
    type view = {
      v_m : int;
      v_ord : int array;
      v_row_of : int array;
      v_l : (int * int array * float array) array;
      v_h : (int * int array * float array) array;
      v_ucols : (int array * float array) array;
      v_urows : (int array * float array) array;
      v_udiag : float array;
      v_nnz : int;
    }

    let view f =
      let ops piv start rows vals n =
        Array.init n (fun k ->
            let e0 = start.(k) and e1 = start.(k + 1) in
            (piv.(k), Array.sub rows e0 (e1 - e0), Array.sub vals e0 (e1 - e0)))
      in
      let slices u =
        Array.init f.m (fun i ->
            (Array.sub u.fi u.beg.(i) u.len.(i), Array.sub u.fv u.beg.(i) u.len.(i)))
      in
      let m = f.m in
      {
        v_m = m;
        v_ord = Array.sub f.ord 0 m;
        v_row_of = Array.sub f.row_of 0 m;
        v_l = ops f.l_piv f.l_start f.l_rows f.l_vals f.n_l;
        v_h = ops f.h_piv f.h_start f.h_rows f.h_vals f.n_h;
        v_ucols = slices f.ucol;
        v_urows = slices f.urow;
        v_udiag = Array.sub f.udiag 0 m;
        v_nnz = nnz f;
      }
  end
end
