type path = int list

let path_nodes topo = function
  | [] -> invalid_arg "Routing.path_nodes: empty path"
  | first :: _ as links ->
    let src = (Topology.link topo first).Topology.src in
    let rec walk at = function
      | [] -> []
      | lid :: rest ->
        let l = Topology.link topo lid in
        if l.Topology.src <> at then
          invalid_arg "Routing.path_nodes: disconnected link sequence";
        l.Topology.dst :: walk l.Topology.dst rest
    in
    src :: walk src links

let path_fibers topo links =
  let seen = Hashtbl.create 8 in
  List.concat_map
    (fun lid ->
      List.filter_map
        (fun f ->
          if Hashtbl.mem seen f then None
          else begin
            Hashtbl.add seen f ();
            Some f
          end)
        (Topology.link topo lid).Topology.fibers)
    links

let path_length_km topo links =
  List.fold_left
    (fun acc f -> acc +. (Topology.fiber topo f).Topology.length_km)
    0.0
    (path_fibers topo links)

let path_valid topo ~src ~dst path =
  match path with
  | [] -> false
  | _ -> (
    try
      let nodes = path_nodes topo path in
      let rec no_repeat seen = function
        | [] -> true
        | n :: rest -> (not (List.mem n seen)) && no_repeat (n :: seen) rest
      in
      List.hd nodes = src
      && List.nth nodes (List.length nodes - 1) = dst
      && no_repeat [] nodes
    with Invalid_argument _ -> false)

let uses_fiber topo path fid =
  List.exists (fun lid -> List.mem fid (Topology.link topo lid).Topology.fibers) path

let default_weight topo (l : Topology.link) =
  List.fold_left
    (fun acc f -> acc +. (Topology.fiber topo f).Topology.length_km)
    50.0 l.Topology.fibers

(* Dijkstra's scratch, one per domain, grown to the largest topology
   searched and reused: distances, the link each node was reached by,
   settled flags, each link's weight for the call (computed when a
   search first relaxes the link: [wgen.(lid) = gen]), and the flags of
   Yen's spur searches and of the disjoint paths' fibers.  A call holds
   it until it returns or raises; a call that finds it held (a weight or
   predicate that itself routes) takes a fresh one.  Every entry a
   search reads is written first, so capacity never shows in a path. *)
type scratch = {
  mutable busy : bool;
  mutable dist : float array;
  mutable via : int array;
  mutable settled : Bytes.t;
  mutable lw : float array;
  mutable wgen : int array;
  mutable gen : int;
  mutable weight : Topology.link -> float;
  mutable cut : Bytes.t;  (* by link: removed for this spur search *)
  mutable banned : Bytes.t;  (* by node *)
  mutable used : Bytes.t;  (* by fiber: on an earlier disjoint path *)
  mutable pnodes : int array;  (* Yen: the previous path's nodes *)
}

(* What a released scratch holds instead of the last call's weight (so
   it keeps no closure alive). *)
let never_weighed (_ : Topology.link) = 0.0

let scratch_make () =
  { busy = false; dist = [||]; via = [||]; settled = Bytes.empty; lw = [||];
    wgen = [||]; gen = 0; weight = never_weighed;
    cut = Bytes.empty; banned = Bytes.empty; used = Bytes.empty; pnodes = [||] }

let scratch_key = Domain.DLS.new_key scratch_make

(* Link [lid]'s weight in this call, computed once. *)
let[@inline] link_weight sc topo lid =
  if Array.unsafe_get sc.wgen lid <> sc.gen then begin
    sc.lw.(lid) <- sc.weight topo.Topology.links.(lid);
    sc.wgen.(lid) <- sc.gen
  end;
  Array.unsafe_get sc.lw lid

(* [k] on scratch sized for [topo], link weights [weight]. *)
let with_scratch topo weight k =
  let n = topo.Topology.num_nodes and nl = Topology.num_links topo in
  let nf = Topology.num_fibers topo in
  let held = Domain.DLS.get scratch_key in
  let sc = if held.busy then scratch_make () else held in
  if Array.length sc.dist < n then begin
    sc.dist <- Array.make n infinity;
    sc.via <- Array.make n (-1);
    sc.settled <- Bytes.make n '\000';
    sc.banned <- Bytes.make n '\000';
    sc.pnodes <- Array.make (n + 1) 0
  end;
  if Array.length sc.lw < nl then begin
    sc.lw <- Array.make nl 0.0;
    sc.wgen <- Array.make nl 0;
    sc.cut <- Bytes.make nl '\000'
  end;
  if Bytes.length sc.used < nf then sc.used <- Bytes.make nf '\000';
  sc.gen <- sc.gen + 1;
  sc.weight <- weight;
  sc.busy <- true;
  match k sc with
  | r ->
    sc.busy <- false;
    sc.weight <- never_weighed;
    r
  | exception e ->
    sc.busy <- false;
    sc.weight <- never_weighed;
    raise e

(* Dijkstra from [src] to [dst] over the scratch's link weights: an O(V²) scan (topologies
   are tens of nodes) settling the lowest-index node of least distance,
   relaxing its [out_links] in list order. *)
let search sc topo ~forbidden_links ~forbidden_nodes ~src ~dst =
  let n = topo.Topology.num_nodes in
  let dist = sc.dist and via = sc.via and settled = sc.settled in
  Array.fill dist 0 n infinity;
  Array.fill via 0 n (-1);
  Bytes.fill settled 0 n '\000';
  dist.(src) <- 0.0;
  let rounds = ref 0 and fin = ref false in
  while (not !fin) && !rounds < n do
    incr rounds;
    let u = ref (-1) in
    for v = 0 to n - 1 do
      if
        Bytes.get settled v = '\000' && dist.(v) < infinity
        && (!u = -1 || dist.(v) < dist.(!u))
      then u := v
    done;
    if !u = -1 || !u = dst then fin := true
    else begin
      let u = !u in
      Bytes.set settled u '\001';
      let out = ref topo.Topology.out_links.(u) in
      while !out <> [] do
        match !out with
        | [] -> ()
        | lid :: rest ->
          out := rest;
          let v = topo.Topology.links.(lid).Topology.dst in
          if
            Bytes.get settled v = '\000'
            && (not (forbidden_links lid))
            && not (forbidden_nodes v)
          then begin
            let d = dist.(u) +. link_weight sc topo lid in
            if d < dist.(v) then begin
              dist.(v) <- d;
              via.(v) <- lid
            end
          end
      done
    end
  done;
  if dist.(dst) = infinity then None
  else begin
    let rec back v acc =
      if v = src then acc
      else
        let lid = via.(v) in
        back (Topology.link topo lid).Topology.src (lid :: acc)
    in
    Some (back dst [])
  end

let never _ = false

let check_nodes topo ~src ~dst =
  let n = topo.Topology.num_nodes in
  if src < 0 || src >= n || dst < 0 || dst >= n then
    invalid_arg "Routing.shortest_path: node out of range";
  if src = dst then invalid_arg "Routing.shortest_path: src = dst"

let shortest_path topo ?weight ?(forbidden_links = never) ?(forbidden_nodes = never)
    ~src ~dst () =
  let weight = match weight with Some w -> w | None -> default_weight topo in
  check_nodes topo ~src ~dst;
  with_scratch topo weight (fun sc ->
      search sc topo ~forbidden_links ~forbidden_nodes ~src ~dst)

(* A path's cost: its links' weights folded from the left. *)
let path_cost sc topo p = List.fold_left (fun acc lid -> acc +. link_weight sc topo lid) 0.0 p

(* The first [i] links of [p], then [tail]. *)
let rec prefix_onto i p tail =
  if i = 0 then tail
  else match p with [] -> tail | lid :: rest -> lid :: prefix_onto (i - 1) rest tail

(* Link [i] of [p] if its first [i] links are those of [prev], else -1:
   the link a root-sharing accepted path takes out of the spur node. *)
let spur_link prev p i =
  let rec go p q j =
    match p with
    | [] -> -1
    | lid :: rest -> (
      if j = i then lid
      else match q with pl :: qrest when lid = pl -> go rest qrest (j + 1) | _ -> -1)
  in
  go p prev 0

(* Set the [cut] flag of the spur link of each path in [paths]. *)
let rec mark cut prev i flag = function
  | [] -> ()
  | p :: paths ->
    let lid = spur_link prev p i in
    if lid >= 0 then Bytes.set cut lid flag;
    mark cut prev i flag paths


let k_shortest topo ?weight ~k ~src ~dst () =
  let weight = match weight with Some w -> w | None -> default_weight topo in
  if k <= 0 then invalid_arg "Routing.k_shortest: k must be positive";
  check_nodes topo ~src ~dst;
  with_scratch topo weight (fun sc ->
      match search sc topo ~forbidden_links:never ~forbidden_nodes:never ~src ~dst with
      | None -> []
      | Some first ->
        let cut = sc.cut and banned = sc.banned in
        let accepted = ref [ first ] and naccepted = ref 1 in
        (* Candidates are (cost, path), kept sorted ascending on insertion. *)
        let candidates = ref [] in
        let add_candidate p =
          if
            (not (List.mem p !accepted))
            && not (List.exists (fun (_, q) -> q = p) !candidates)
          then begin
            let c = path_cost sc topo p in
            let rec insert = function
              | [] -> [ (c, p) ]
              | (c', _) :: _ as l when c < c' -> (c, p) :: l
              | x :: rest -> x :: insert rest
            in
            candidates := insert !candidates
          end
        in
        (* Forbidden sets of one spur search, as flags set before the
           search and cleared after it. *)
        let forbidden_links lid = Bytes.get cut lid <> '\000' in
        let forbidden_nodes v = Bytes.get banned v <> '\000' in
        let fin = ref false in
        while (not !fin) && !naccepted < k do
          let prev = List.hd !accepted in
          (* The previous path's nodes, source first. *)
          let pnodes = sc.pnodes in
          let len = ref 0 in
          List.iter
            (fun lid ->
              let l = topo.Topology.links.(lid) in
              if !len = 0 then begin
                pnodes.(0) <- l.Topology.src;
                len := 1
              end;
              pnodes.(!len) <- l.Topology.dst;
              incr len)
            prev;
          for i = 0 to !len - 2 do
            let spur_node = pnodes.(i) in
            (* Links leaving the spur node that any accepted path with
               the same root (the first i links of [prev]) uses are
               removed; root nodes (except the spur) are forbidden for
               looplessness. *)
            mark cut prev i '\001' !accepted;
            for j = 0 to i - 1 do
              Bytes.set banned pnodes.(j) '\001'
            done;
            let spur =
              search sc topo ~forbidden_links ~forbidden_nodes ~src:spur_node ~dst
            in
            mark cut prev i '\000' !accepted;
            for j = 0 to i - 1 do
              Bytes.set banned pnodes.(j) '\000'
            done;
            (match spur with
            | Some sp -> add_candidate (prefix_onto i prev sp)
            | None -> ())
          done;
          match !candidates with
          | [] -> fin := true
          | (_, best) :: rest ->
            candidates := rest;
            accepted := best :: !accepted;
            incr naccepted
        done;
        (* [accepted] is reverse-ordered (best last) because we cons. *)
        List.rev !accepted)

let fiber_disjoint topo ?weight ~k ~src ~dst () =
  let weight = match weight with Some w -> w | None -> default_weight topo in
  if k <= 0 then invalid_arg "Routing.fiber_disjoint: k must be positive";
  check_nodes topo ~src ~dst;
  with_scratch topo weight (fun sc ->
      let used = sc.used in
      Bytes.fill used 0 (Topology.num_fibers topo) '\000';
      let is_used f = Bytes.get used f <> '\000' in
      let forbidden_links lid = List.exists is_used topo.Topology.links.(lid).Topology.fibers in
      let use f = Bytes.set used f '\001' in
      let rec loop acc remaining =
        if remaining = 0 then List.rev acc
        else
          match search sc topo ~forbidden_links ~forbidden_nodes:never ~src ~dst with
          | None -> List.rev acc
          | Some p ->
            List.iter (fun lid -> List.iter use topo.Topology.links.(lid).Topology.fibers) p;
            loop (p :: acc) (remaining - 1)
      in
      loop [] k)
