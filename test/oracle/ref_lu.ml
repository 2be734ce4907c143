(* The sparse LU factor as it was before the single-pass elimination
   replaced it, kept verbatim as a test-only reference: the property
   "factorize == reference" in test_lu compares the library's factor
   with this one field by field (ordinals, pivot rows, L ops in order,
   U cells in cell order, diagonal, dropped list, basis_out).  Linked by
   the LP tests only. *)

open Prete_lp.Sparse

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
   H/L ops in reverse.  Both are O(factor nonzeros + m).  {!ftran_nz}
   also lists the result's nonzero rows, so a caller can visit only
   those.

   {!update} replaces the basis column of one row by a Forrest–Tomlin
   update: the spike (H·L)(entering column) was cached by the preceding
   {!ftran}; the old column is deleted, its id cyclic-shifted to the last
   ordinal, and the detached U row eliminated by a single new row eta.
   It refuses (returns [false]) when the new diagonal is too small
   relative to the spike or a multiplier explodes, signalling the caller
   to refactorize — the Bartels–Golub-style stability fallback. *)
module Lu = struct
  (* Growable parallel (index, value) arrays with swap-removal.  Cells
     start without storage: a factor holds 2m of them plus one per basis
     column, and most stay short or empty. *)
  type cell = { mutable ci : int array; mutable cv : float array; mutable clen : int }

  let cell_make () = { ci = [||]; cv = [||]; clen = 0 }

  (* The factor's U rows and columns start as this shared empty cell and
     get one of their own on the first push ([own]); clearing or
     removing from an empty cell writes nothing. *)
  let empty_cell = cell_make ()

  let own cells i =
    let c = cells.(i) in
    if c != empty_cell then c
    else begin
      let c = cell_make () in
      cells.(i) <- c;
      c
    end

  let cell_clear c = if c.clen <> 0 then c.clen <- 0

  let cell_push c i v =
    if c.clen = Array.length c.ci then begin
      let n = Stdlib.max 4 (2 * c.clen) in
      let ci = Array.make n 0 and cv = Array.make n 0.0 in
      Array.blit c.ci 0 ci 0 c.clen;
      Array.blit c.cv 0 cv 0 c.clen;
      c.ci <- ci;
      c.cv <- cv
    end;
    c.ci.(c.clen) <- i;
    c.cv.(c.clen) <- v;
    c.clen <- c.clen + 1

  (* Remove the entry with index [i]; returns its value (0.0 if absent). *)
  let cell_remove c i =
    let r = ref 0.0 in
    (try
       for k = 0 to c.clen - 1 do
         if c.ci.(k) = i then begin
           r := c.cv.(k);
           c.clen <- c.clen - 1;
           c.ci.(k) <- c.ci.(c.clen);
           c.cv.(k) <- c.cv.(c.clen);
           raise Exit
         end
       done
     with Exit -> ());
    !r

  (* L op: forall k, x.(o_rows.(k)) -= o_vals.(k) *. x.(o_piv).
     H op: x.(o_piv) -= Σ_k o_vals.(k) *. x.(o_rows.(k)). *)
  type op = { o_piv : int; o_rows : int array; o_vals : float array }

  let dummy_op = { o_piv = 0; o_rows = [||]; o_vals = [||] }

  (* Int lists kept in a node pool: [head.(k)] is list k's first node
     (-1 when empty), pushes prepend.  Same order semantics as [int list]
     with cons and head-first iteration, without a heap block per cons;
     the pool is reset, not freed, between factorizations. *)
  type pool = { mutable nval : int array; mutable nnext : int array; mutable used : int }

  let pool_make () = { nval = Array.make 64 0; nnext = Array.make 64 0; used = 0 }

  let pool_push p head k v =
    if p.used = Array.length p.nval then begin
      let n = 2 * p.used in
      let nval = Array.make n 0 and nnext = Array.make n 0 in
      Array.blit p.nval 0 nval 0 p.used;
      Array.blit p.nnext 0 nnext 0 p.used;
      p.nval <- nval;
      p.nnext <- nnext
    end;
    p.nval.(p.used) <- v;
    p.nnext.(p.used) <- head.(k);
    head.(k) <- p.used;
    p.used <- p.used + 1

  (* Factorization scratch, sized by the row count (and, for [mark], the
     matrix's column count) and kept with the factor so a refactorization
     into the same storage allocates nothing here. *)
  type work = {
    mutable mark : Bytes.t;  (* by matrix column: is a target *)
    mutable cols : int array;  (* slot -> matrix column *)
    mutable acol : cell array;  (* slot -> active column entries *)
    mutable coldone : Bytes.t;  (* by slot *)
    mutable id_of_slot : int array;
    mutable pend_start : int array;  (* by id: pending U row in [pend_*] *)
    mutable pend_len : int array;
    arow : int array;  (* by row: head of its slot list in [rpool] *)
    rpool : pool;
    buckets : int array;  (* by count: head of its slot list in [bpool] *)
    bpool : pool;
    rowcnt : int array;
    rowdone : Bytes.t;
    wk : float array;  (* dense Schur merge workspace *)
    stamp : int array;
    mutable pend_s : int array;  (* pending U entries: slot, value *)
    mutable pend_v : float array;
    mutable pend_n : int;
    mutable fill : int array;
    upend : int array;  (* update: pending ids, a set marked in [inpend] *)
    inpend : Bytes.t;
    mutable hrows : int array;  (* update: row-eta buffer *)
    mutable hvals : float array;
    snz : int array;  (* update: rows of the new U column *)
  }

  let work_make m =
    {
      mark = Bytes.empty;
      cols = [||];
      acol = [||];
      coldone = Bytes.empty;
      id_of_slot = [||];
      pend_start = [||];
      pend_len = [||];
      arow = Array.make m (-1);
      rpool = pool_make ();
      buckets = Array.make (m + 2) (-1);
      bpool = pool_make ();
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
      hrows = Array.make (Stdlib.max 1 m) 0;
      hvals = Array.make (Stdlib.max 1 m) 0.0;
      snz = Array.make m 0;
    }

  (* Per-slot arrays sized for [nc] slots (grown, never shrunk); the
     active-column cells only once an elimination needs them. *)
  let work_slots w nc =
    if Array.length w.cols < nc then begin
      w.cols <- Array.make nc 0;
      w.coldone <- Bytes.make nc '\000';
      w.id_of_slot <- Array.make nc (-1);
      w.pend_start <- Array.make nc 0;
      w.pend_len <- Array.make nc 0
    end

  let work_cells w nc =
    let old = Array.length w.acol in
    if old < nc then
      w.acol <- Array.init nc (fun s -> if s < old then w.acol.(s) else cell_make ())

  let pend_push w s v =
    if w.pend_n = Array.length w.pend_s then begin
      let n = 2 * w.pend_n in
      let ps = Array.make n 0 and pv = Array.make n 0.0 in
      Array.blit w.pend_s 0 ps 0 w.pend_n;
      Array.blit w.pend_v 0 pv 0 w.pend_n;
      w.pend_s <- ps;
      w.pend_v <- pv
    end;
    w.pend_s.(w.pend_n) <- s;
    w.pend_v.(w.pend_n) <- v;
    w.pend_n <- w.pend_n + 1

  type t = {
    m : int;
    ord : int array;  (* id -> triangular position *)
    id_at : int array;  (* position -> id *)
    row_of : int array;  (* id -> pivot row *)
    id_of_row : int array;  (* row -> id *)
    mutable l_ops : op array;
    mutable n_l : int;
    mutable h_ops : op array;
    mutable n_h : int;
    ucols : cell array;  (* by id: (row, value), diagonal excluded;
                            [empty_cell] until first pushed *)
    urows : cell array;  (* by row: (id, value), diagonal excluded;
                            likewise *)
    udiag : float array;  (* by id *)
    mutable unnz : int;  (* U entries incl. diagonals *)
    mutable opnnz : int;  (* L + H op entries *)
    spike : float array;  (* (H·L)(column) cached by the last ftran *)
    rowacc : float array;  (* by id: update row-elimination accumulator *)
    work : work;
  }

  let nnz f = f.unnz + f.opnnz

  let updates f = f.n_h

  let push_l f op =
    if f.n_l = Array.length f.l_ops then begin
      let bigger = Array.make (2 * f.n_l) dummy_op in
      Array.blit f.l_ops 0 bigger 0 f.n_l;
      f.l_ops <- bigger
    end;
    f.l_ops.(f.n_l) <- op;
    f.n_l <- f.n_l + 1;
    f.opnnz <- f.opnnz + Array.length op.o_rows

  let push_h f op =
    if f.n_h = Array.length f.h_ops then begin
      let bigger = Array.make (2 * f.n_h) dummy_op in
      Array.blit f.h_ops 0 bigger 0 f.n_h;
      f.h_ops <- bigger
    end;
    f.h_ops.(f.n_h) <- op;
    f.n_h <- f.n_h + 1;
    f.opnnz <- f.opnnz + Array.length op.o_rows

  let create m =
    { m;
      ord = Array.make m 0;
      id_at = Array.make m 0;
      row_of = Array.make m (-1);
      id_of_row = Array.make m (-1);
      l_ops = Array.make 16 dummy_op;
      n_l = 0;
      h_ops = Array.make 16 dummy_op;
      n_h = 0;
      ucols = Array.make m empty_cell;
      urows = Array.make m empty_cell;
      udiag = Array.make m 0.0;
      unnz = 0;
      opnnz = 0;
      spike = Array.make m 0.0;
      rowacc = Array.make m 0.0;
      work = work_make m }

  (* Empty [f] for a new factorization over the same row count. *)
  let reset f =
    Array.fill f.row_of 0 f.m (-1);
    Array.fill f.id_of_row 0 f.m (-1);
    Array.fill f.l_ops 0 f.n_l dummy_op;
    f.n_l <- 0;
    Array.fill f.h_ops 0 f.n_h dummy_op;
    f.n_h <- 0;
    Array.iter cell_clear f.ucols;
    Array.iter cell_clear f.urows;
    f.unnz <- 0;
    f.opnnz <- 0;
    Array.fill f.rowacc 0 f.m 0.0

  let claim f r id =
    f.ord.(id) <- id;
    f.id_at.(id) <- id;
    f.row_of.(id) <- r;
    f.id_of_row.(r) <- id;
    Bytes.set f.work.rowdone r '\001'

  (* Unclaimed rows take their crash identity column: a singleton at its
     own row, so it pivots on itself with no fill and no L op. *)
  let claim_crash_rows f (a : mat) ~crash ~basis_out nextid =
    for r = 0 to f.m - 1 do
      if Bytes.get f.work.rowdone r = '\000' then begin
        let id = !nextid in
        incr nextid;
        claim f r id;
        let v = ref 0.0 in
        iter_col a crash.(r) (fun i x -> if i = r then v := x);
        if Float.abs !v < 1e-11 then
          invalid_arg "Sparse.Lu.factorize: crash column is not an identity";
        f.udiag.(id) <- !v;
        f.unnz <- f.unnz + 1;
        basis_out.(r) <- crash.(r)
      end
    done

  (* Targets [cols.(0 .. nc-1)] that are all singleton columns on
     distinct rows, each of magnitude >= 1e-11 (a crash basis): the
     elimination would pop them in slot order from the count-1 bucket and
     pivot each on its only entry with no L op, no pending U row and no
     fill, so the factor is that diagonal.  Builds it without the
     active-column cells and returns [true]; [false] (nothing claimed)
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
      claim_crash_rows f a ~crash ~basis_out (ref nc)
    end;
    !diagonal

  (* Markowitz elimination of the target slots [cols.(0 .. nc-1)]. *)
  let eliminate ~tau f (a : mat) ~cols ~nc ~crash ~basis_out =
    let m = f.m and w = f.work in
    let rowdone = w.rowdone in
    work_cells w nc;
    (* Active submatrix: column slots with values; row-wise slot lists
       are lazily cleaned (stale slots skipped on use). *)
    let acol = w.acol and arow = w.arow and rpool = w.rpool in
    let rowcnt = w.rowcnt and coldone = w.coldone in
    Array.fill arow 0 m (-1);
    rpool.used <- 0;
    Array.fill rowcnt 0 m 0;
    Bytes.fill rowdone 0 m '\000';
    Bytes.fill coldone 0 nc '\000';
    for s = 0 to nc - 1 do
      let c = acol.(s) in
      cell_clear c;
      for k = a.colptr.(cols.(s)) to a.colptr.(cols.(s) + 1) - 1 do
        let r = a.rowidx.(k) in
        cell_push c r a.values.(k);
        pool_push rpool arow r s;
        rowcnt.(r) <- rowcnt.(r) + 1
      done
    done;
    (* Count buckets over column slots, lazily revalidated on pop. *)
    let buckets = w.buckets and bpool = w.bpool in
    Array.fill buckets 0 (m + 2) (-1);
    bpool.used <- 0;
    for s = nc - 1 downto 0 do
      pool_push bpool buckets acol.(s).clen s
    done;
    let cur = ref 0 in
    let requeue s =
      let k = acol.(s).clen in
      pool_push bpool buckets k s;
      if k < !cur then cur := k
    in
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
    if Array.length w.fill < m then w.fill <- Array.make m 0;
    let fill = w.fill in
    let steps = ref 0 in
    while !steps < nc do
      let slot = ref (-1) in
      while !slot = -1 do
        let p = buckets.(!cur) in
        if p = -1 then incr cur
        else begin
          let s = bpool.nval.(p) in
          buckets.(!cur) <- bpool.nnext.(p);
          if Bytes.get coldone s = '\000' && acol.(s).clen = !cur then slot := s
        end
      done;
      let s = !slot in
      Bytes.set coldone s '\001';
      incr steps;
      let c = acol.(s) in
      let cmax = ref 0.0 in
      for k = 0 to c.clen - 1 do
        let av = Float.abs c.cv.(k) in
        if av > !cmax then cmax := av
      done;
      if !cmax < 1e-11 then begin
        (* Cancelled or empty column: numerically singular, drop it. *)
        dropped := cols.(s) :: !dropped;
        for k = 0 to c.clen - 1 do
          rowcnt.(c.ci.(k)) <- rowcnt.(c.ci.(k)) - 1
        done;
        cell_clear c
      end
      else begin
        let thresh = tau *. !cmax in
        let prow = ref (-1) and pval = ref 0.0 and pcnt = ref max_int in
        for k = 0 to c.clen - 1 do
          let r = c.ci.(k) and v = c.cv.(k) in
          if Float.abs v >= thresh then
            if
              rowcnt.(r) < !pcnt || (rowcnt.(r) = !pcnt && (!prow = -1 || r < !prow))
            then begin
              prow := r;
              pval := v;
              pcnt := rowcnt.(r)
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
           (a cell holds each row at most once). *)
        let lcnt = c.clen - 1 in
        let lrows = Array.make lcnt 0 and lvals = Array.make lcnt 0.0 in
        let kk = ref 0 in
        let inv = 1.0 /. piv in
        for k = 0 to c.clen - 1 do
          let i = c.ci.(k) in
          if i <> r then begin
            lrows.(!kk) <- i;
            lvals.(!kk) <- c.cv.(k) *. inv;
            incr kk;
            rowcnt.(i) <- rowcnt.(i) - 1
          end
        done;
        rowcnt.(r) <- rowcnt.(r) - 1;
        if lcnt > 0 then push_l f { o_piv = r; o_rows = lrows; o_vals = lvals };
        cell_clear c;
        (* Extract the pivot row from the remaining active columns... *)
        let p0 = w.pend_n in
        let p = ref arow.(r) in
        while !p >= 0 do
          let s' = rpool.nval.(!p) in
          p := rpool.nnext.(!p);
          if Bytes.get coldone s' = '\000' && s' <> s then begin
            let v = cell_remove acol.(s') r in
            if v <> 0.0 then begin
              pend_push w s' v;
              requeue s'
            end
          end
        done;
        arow.(r) <- -1;
        w.pend_start.(id) <- p0;
        w.pend_len.(id) <- w.pend_n - p0;
        (* ... and apply the rank-1 Schur update to each of them. *)
        if lcnt > 0 then
          for e = w.pend_n - 1 downto p0 do
            let s' = w.pend_s.(e) and uv = w.pend_v.(e) in
            let cc = acol.(s') in
            for k = 0 to cc.clen - 1 do
              stamp.(cc.ci.(k)) <- s';
              wk.(cc.ci.(k)) <- cc.cv.(k)
            done;
            let nfill = ref 0 in
            for k = 0 to lcnt - 1 do
              let i = lrows.(k) in
              let delta = lvals.(k) *. uv in
              if stamp.(i) = s' then wk.(i) <- wk.(i) -. delta
              else begin
                stamp.(i) <- s';
                wk.(i) <- -.delta;
                fill.(!nfill) <- i;
                incr nfill
              end
            done;
            (* Rebuild the column in place: survivors first, fill after
               (order within a cell is irrelevant — solves go through
               the ordinal arrays). *)
            let old = cc.clen in
            cc.clen <- 0;
            for k = 0 to old - 1 do
              let i = cc.ci.(k) in
              if stamp.(i) = s' then begin
                let v = wk.(i) in
                stamp.(i) <- -1;
                if Float.abs v > 1e-14 then cell_push cc i v
                else rowcnt.(i) <- rowcnt.(i) - 1
              end
            done;
            for k = 0 to !nfill - 1 do
              let i = fill.(k) in
              if stamp.(i) = s' then begin
                let v = wk.(i) in
                stamp.(i) <- -1;
                if Float.abs v > 1e-14 then begin
                  cell_push cc i v;
                  pool_push rpool arow i s';
                  rowcnt.(i) <- rowcnt.(i) + 1
                end
              end
            done;
            requeue s'
          done
      end
    done;
    claim_crash_rows f a ~crash ~basis_out nextid;
    (* Scatter pending U rows now that every surviving slot has an id;
       entries pointing at dropped columns vanish with their column. *)
    for s = 0 to nc - 1 do
      let id = id_of_slot.(s) in
      if id >= 0 then begin
        let r = f.row_of.(id) in
        basis_out.(r) <- cols.(s);
        let p0 = w.pend_start.(id) in
        for e = p0 + w.pend_len.(id) - 1 downto p0 do
          let id' = id_of_slot.(w.pend_s.(e)) in
          if id' >= 0 then begin
            let v = w.pend_v.(e) in
            cell_push (own f.ucols id') r v;
            cell_push (own f.urows r) id' v;
            f.unnz <- f.unnz + 1
          end
        done
      end
    done;
    (f, !dropped)

  (* Factorize the column set found in [targets] (the row pairing is
     ignored; duplicates collapse).  Rows claimed by no target — and rows
     of targets dropped as numerically singular — take their [crash]
     identity column instead, which eliminates trivially (crash columns
     are singletons by construction).  [basis_out.(r)] receives the
     column pivoted on row r; the returned list is the dropped targets
     (empty on success).  With [into], the factorization is rebuilt in
     that factor's storage (its previous contents are discarded). *)
  let factorize ?(tau = 0.1) ?into (a : mat) ~targets ~crash ~basis_out =
    let m = a.rows in
    let f =
      match into with
      | Some f when f.m = m ->
        reset f;
        f
      | _ -> create m
    in
    let w = f.work in
    (* Distinct target columns, lowest-index first: mark, then scan the
       marks in column order. *)
    if Bytes.length w.mark < a.cols then w.mark <- Bytes.make a.cols '\000';
    let mark = w.mark in
    let nc = ref 0 in
    Array.iter
      (fun c ->
        if c >= 0 && Bytes.get mark c = '\000' then begin
          Bytes.set mark c '\001';
          incr nc
        end)
      targets;
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
    else eliminate ~tau f a ~cols ~nc ~crash ~basis_out

  (* The solves are the engine's hottest loops, hence unchecked reads:
     ids, ordinals and every row an op or a U cell holds are < m, and
     the inner bounds are the arrays' own lengths (a cell's capacity is
     at least its [clen]). *)

  (* FTRAN's L and H stages, then the spike cache for {!update}. *)
  let ftran_lh f x =
    for k = 0 to f.n_l - 1 do
      let op = Array.unsafe_get f.l_ops k in
      let xr = Array.unsafe_get x op.o_piv in
      if xr <> 0.0 then begin
        let rows = op.o_rows and vals = op.o_vals in
        for i = 0 to Array.length rows - 1 do
          let r = Array.unsafe_get rows i in
          Array.unsafe_set x r
            (Array.unsafe_get x r -. (Array.unsafe_get vals i *. xr))
        done
      end
    done;
    for k = 0 to f.n_h - 1 do
      let op = Array.unsafe_get f.h_ops k in
      let rows = op.o_rows and vals = op.o_vals in
      let acc = ref (Array.unsafe_get x op.o_piv) in
      for i = 0 to Array.length rows - 1 do
        acc :=
          !acc -. (Array.unsafe_get vals i *. Array.unsafe_get x (Array.unsafe_get rows i))
      done;
      Array.unsafe_set x op.o_piv !acc
    done;
    Array.blit x 0 f.spike 0 f.m

  (* FTRAN: x := B⁻¹x.  Caches the post-L/H spike for a following
     {!update} — callers must FTRAN the entering column immediately
     before updating (the simplex pivot loop does). *)
  let ftran f x =
    ftran_lh f x;
    (* U back-substitution in decreasing ordinal order, in place: column
       k's entries live in rows of strictly smaller ordinal, so writing
       the solved value at the pivot row never collides. *)
    for o = f.m - 1 downto 0 do
      let id = Array.unsafe_get f.id_at o in
      let r = Array.unsafe_get f.row_of id in
      let xr = Array.unsafe_get x r in
      if xr <> 0.0 then begin
        let z = xr /. Array.unsafe_get f.udiag id in
        Array.unsafe_set x r z;
        let c = Array.unsafe_get f.ucols id in
        let ci = c.ci and cv = c.cv in
        for k = 0 to c.clen - 1 do
          let i = Array.unsafe_get ci k in
          Array.unsafe_set x i (Array.unsafe_get x i -. (Array.unsafe_get cv k *. z))
        done
      end
    done

  (* [ftran] that also lists the rows it leaves nonzero.  Row r is final
     once its ordinal is passed (later columns only reach smaller
     ordinals), so it is listed there iff its solved value is nonzero;
     rows skipped at ±0 stay ±0.  The arithmetic is [ftran]'s, operation
     for operation. *)
  let ftran_nz f x nz =
    ftran_lh f x;
    let cnt = ref 0 in
    for o = f.m - 1 downto 0 do
      let id = Array.unsafe_get f.id_at o in
      let r = Array.unsafe_get f.row_of id in
      let xr = Array.unsafe_get x r in
      if xr <> 0.0 then begin
        let z = xr /. Array.unsafe_get f.udiag id in
        Array.unsafe_set x r z;
        if z <> 0.0 then begin
          nz.(!cnt) <- r;
          incr cnt
        end;
        let c = Array.unsafe_get f.ucols id in
        let ci = c.ci and cv = c.cv in
        for k = 0 to c.clen - 1 do
          let i = Array.unsafe_get ci k in
          Array.unsafe_set x i (Array.unsafe_get x i -. (Array.unsafe_get cv k *. z))
        done
      end
    done;
    !cnt

  (* BTRAN: y := B⁻ᵀy.  Uᵀ forward-substitution in increasing ordinal
     order, then the transposed H and L ops in reverse creation order. *)
  let btran f y =
    for o = 0 to f.m - 1 do
      let id = Array.unsafe_get f.id_at o in
      let r = Array.unsafe_get f.row_of id in
      let acc = ref (Array.unsafe_get y r) in
      let c = Array.unsafe_get f.ucols id in
      let ci = c.ci and cv = c.cv in
      for k = 0 to c.clen - 1 do
        acc := !acc -. (Array.unsafe_get cv k *. Array.unsafe_get y (Array.unsafe_get ci k))
      done;
      Array.unsafe_set y r (!acc /. Array.unsafe_get f.udiag id)
    done;
    for k = f.n_h - 1 downto 0 do
      let op = Array.unsafe_get f.h_ops k in
      let yp = Array.unsafe_get y op.o_piv in
      if yp <> 0.0 then begin
        let rows = op.o_rows and vals = op.o_vals in
        for i = 0 to Array.length rows - 1 do
          let r = Array.unsafe_get rows i in
          Array.unsafe_set y r
            (Array.unsafe_get y r -. (Array.unsafe_get vals i *. yp))
        done
      end
    done;
    for k = f.n_l - 1 downto 0 do
      let op = Array.unsafe_get f.l_ops k in
      let rows = op.o_rows and vals = op.o_vals in
      let acc = ref (Array.unsafe_get y op.o_piv) in
      for i = 0 to Array.length rows - 1 do
        acc :=
          !acc -. (Array.unsafe_get vals i *. Array.unsafe_get y (Array.unsafe_get rows i))
      done;
      Array.unsafe_set y op.o_piv !acc
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
    let add id =
      Bytes.set inpend id '\001';
      pend.(!npend) <- id;
      incr npend
    in
    (* Detach row rl of U into the elimination accumulator (by id) and
       delete column p. *)
    let ur = f.urows.(rl) in
    for k = 0 to ur.clen - 1 do
      let id = ur.ci.(k) in
      ignore (cell_remove f.ucols.(id) rl);
      f.unnz <- f.unnz - 1;
      f.rowacc.(id) <- ur.cv.(k);
      add id
    done;
    cell_clear ur;
    let uc = f.ucols.(p) in
    for k = 0 to uc.clen - 1 do
      ignore (cell_remove f.urows.(uc.ci.(k)) p);
      f.unnz <- f.unnz - 1
    done;
    cell_clear uc;
    f.unnz <- f.unnz - 1 (* old diagonal *);
    (* Cyclic shift: id p moves to the last position. *)
    for o = t to last - 1 do
      let id = f.id_at.(o + 1) in
      f.id_at.(o) <- id;
      f.ord.(id) <- o
    done;
    f.id_at.(last) <- p;
    f.ord.(p) <- last;
    (* Eliminate the detached row against U in increasing ordinal order;
       fill lands at strictly larger ordinals, so a min-scan worklist
       terminates.  The worklist is a set (ordinals are distinct, so the
       scan order cannot matter); multipliers accumulate into one row
       eta. *)
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
        if !hcnt = Array.length w.hrows then begin
          w.hrows <- Array.append w.hrows w.hrows;
          w.hvals <- Array.append w.hvals w.hvals
        end;
        let rj = f.row_of.(j) in
        w.hrows.(!hcnt) <- rj;
        w.hvals.(!hcnt) <- mj;
        incr hcnt;
        let urj = f.urows.(rj) in
        for k = 0 to urj.clen - 1 do
          let id' = urj.ci.(k) in
          if Bytes.get inpend id' = '\000' then add id';
          f.rowacc.(id') <- f.rowacc.(id') -. (mj *. urj.cv.(k))
        done
      end
    done;
    for k = 0 to !npend - 1 do
      Bytes.set inpend pend.(k) '\000'
    done;
    if not !ok then false
    else begin
      let hrows = Array.sub w.hrows 0 !hcnt and hvals = Array.sub w.hvals 0 !hcnt in
      (* New column p = (row eta)·spike: only the rl entry changes. *)
      let s = f.spike in
      let newdiag = ref s.(rl) in
      for k = 0 to !hcnt - 1 do
        newdiag := !newdiag -. (hvals.(k) *. s.(hrows.(k)))
      done;
      (* One pass over the spike: its max magnitude for the stability
         test, and the rows of the new U column in ascending order. *)
      let smax = ref 0.0 and ns = ref 0 in
      let snz = w.snz in
      for i = 0 to f.m - 1 do
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
        if !hcnt > 0 then push_h f { o_piv = rl; o_rows = hrows; o_vals = hvals };
        f.udiag.(p) <- !newdiag;
        f.unnz <- f.unnz + 1 + !ns;
        for k = 0 to !ns - 1 do
          let i = snz.(k) in
          cell_push (own f.ucols p) i s.(i);
          cell_push (own f.urows i) p s.(i)
        done;
        true
      end
    end
end

(* The reference factor in the library's comparison form. *)
let view (f : Lu.t) : Prete_lp.Sparse.Lu.Internal.view =
  let op (o : Lu.op) = (o.Lu.o_piv, Array.copy o.Lu.o_rows, Array.copy o.Lu.o_vals) in
  let cell (c : Lu.cell) = (Array.sub c.Lu.ci 0 c.Lu.clen, Array.sub c.Lu.cv 0 c.Lu.clen) in
  {
    Prete_lp.Sparse.Lu.Internal.v_m = f.Lu.m;
    v_ord = Array.copy f.Lu.ord;
    v_row_of = Array.copy f.Lu.row_of;
    v_l = Array.init f.Lu.n_l (fun k -> op f.Lu.l_ops.(k));
    v_h = Array.init f.Lu.n_h (fun k -> op f.Lu.h_ops.(k));
    v_ucols = Array.map cell f.Lu.ucols;
    v_urows = Array.map cell f.Lu.urows;
    v_udiag = Array.copy f.Lu.udiag;
    v_nnz = Lu.nnz f;
  }
