(* Path computation as it was before the search scratch became per-domain,
   kept verbatim as a test-only reference: test_net checks that every
   path list Routing returns (and so every tunnel Tunnel_update.react
   builds from them) equals this one's. *)

open Prete_net

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

let shortest_path topo ?weight ?(forbidden_links = fun _ -> false)
    ?(forbidden_nodes = fun _ -> false) ~src ~dst () =
  let weight = match weight with Some w -> w | None -> default_weight topo in
  let n = topo.Topology.num_nodes in
  if src < 0 || src >= n || dst < 0 || dst >= n then
    invalid_arg "Routing.shortest_path: node out of range";
  if src = dst then invalid_arg "Routing.shortest_path: src = dst";
  let dist = Array.make n infinity in
  let via = Array.make n (-1) in
  (* link id used to reach each node *)
  let visited = Array.make n false in
  dist.(src) <- 0.0;
  let exception Done in
  (try
     for _ = 1 to n do
       (* O(V^2) scan: topologies are tens of nodes. *)
       let u = ref (-1) in
       for v = 0 to n - 1 do
         if (not visited.(v)) && dist.(v) < infinity
            && (!u = -1 || dist.(v) < dist.(!u))
         then u := v
       done;
       if !u = -1 then raise Done;
       let u = !u in
       if u = dst then raise Done;
       visited.(u) <- true;
       List.iter
         (fun lid ->
           let l = topo.Topology.links.(lid) in
           let v = l.Topology.dst in
           if
             (not visited.(v))
             && (not (forbidden_links lid))
             && not (forbidden_nodes v)
           then begin
             let d = dist.(u) +. weight l in
             if d < dist.(v) then begin
               dist.(v) <- d;
               via.(v) <- lid
             end
           end)
         topo.Topology.out_links.(u)
     done
   with Done -> ());
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

let path_cost topo weight p =
  List.fold_left (fun acc lid -> acc +. weight (Topology.link topo lid)) 0.0 p

let k_shortest topo ?weight ~k ~src ~dst () =
  let weight = match weight with Some w -> w | None -> default_weight topo in
  if k <= 0 then invalid_arg "Routing.k_shortest: k must be positive";
  match shortest_path topo ~weight ~src ~dst () with
  | None -> []
  | Some first ->
    let accepted = ref [ first ] in
    let candidates = ref [] in
    (* Candidates are (cost, path), kept sorted ascending on insertion. *)
    let add_candidate p =
      if
        (not (List.mem p !accepted))
        && not (List.exists (fun (_, q) -> q = p) !candidates)
      then begin
        let c = path_cost topo weight p in
        let rec insert = function
          | [] -> [ (c, p) ]
          | (c', _) :: _ as l when c < c' -> (c, p) :: l
          | x :: rest -> x :: insert rest
        in
        candidates := insert !candidates
      end
    in
    (* Forbidden sets of one spur search, as flags set before the search
       and cleared after it. *)
    let removed = Array.make (Topology.num_links topo) false in
    let banned = Array.make topo.Topology.num_nodes false in
    (try
       while List.length !accepted < k do
         let prev = List.hd !accepted in
         let prev_nodes = Array.of_list (path_nodes topo prev) in
         let prev_links = Array.of_list prev in
         for i = 0 to Array.length prev_links - 1 do
           let spur_node = prev_nodes.(i) in
           (* Links leaving the spur node that any accepted path with the
              same root (the first i links of [prev]) uses are removed. *)
           let rec spur_link p j =
             match p with
             | [] -> None
             | lid :: rest ->
               if j = i then Some lid
               else if lid = prev_links.(j) then spur_link rest (j + 1)
               else None
           in
           let removed_links = List.filter_map (fun p -> spur_link p 0) !accepted in
           List.iter (fun lid -> removed.(lid) <- true) removed_links;
           (* Root nodes (except the spur) are forbidden for looplessness. *)
           for j = 0 to i - 1 do
             banned.(prev_nodes.(j)) <- true
           done;
           let spur =
             shortest_path topo ~weight
               ~forbidden_links:(fun lid -> removed.(lid))
               ~forbidden_nodes:(fun v -> banned.(v))
               ~src:spur_node ~dst ()
           in
           List.iter (fun lid -> removed.(lid) <- false) removed_links;
           for j = 0 to i - 1 do
             banned.(prev_nodes.(j)) <- false
           done;
           match spur with
           | Some sp -> add_candidate (Array.to_list (Array.sub prev_links 0 i) @ sp)
           | None -> ()
         done;
         match !candidates with
         | [] -> raise Exit
         | (_, best) :: rest ->
           candidates := rest;
           accepted := best :: !accepted
       done
     with Exit -> ());
    (* [accepted] is reverse-ordered (best last) because we cons. *)
    List.rev !accepted

let fiber_disjoint topo ?weight ~k ~src ~dst () =
  let weight = match weight with Some w -> w | None -> default_weight topo in
  if k <= 0 then invalid_arg "Routing.fiber_disjoint: k must be positive";
  let used_fibers = Array.make (Topology.num_fibers topo) false in
  let forbidden_links lid =
    List.exists (fun f -> used_fibers.(f)) (Topology.link topo lid).Topology.fibers
  in
  let rec loop acc remaining =
    if remaining = 0 then List.rev acc
    else
      match shortest_path topo ~weight ~forbidden_links ~src ~dst () with
      | None -> List.rev acc
      | Some p ->
        List.iter
          (fun lid ->
            List.iter (fun f -> used_fibers.(f) <- true) (Topology.link topo lid).Topology.fibers)
          p;
        loop (p :: acc) (remaining - 1)
  in
  loop [] k
