(* Tests for prete_net: topology construction (Table 3 statistics),
   routing algorithms, tunnel sets and traffic matrices. *)

open Prete_net

let check_close eps = Alcotest.(check (float eps))

(* ------------------------------------------------------------------ *)
(* Topology                                                             *)
(* ------------------------------------------------------------------ *)

let test_table3_b4 () =
  let t = Topology.b4 () in
  Alcotest.(check int) "fibers" 19 (Topology.num_fibers t);
  Alcotest.(check int) "undirected IP links" 52 (Topology.num_links t / 2);
  Alcotest.(check int) "nodes" 12 t.Topology.num_nodes

let test_table3_ibm () =
  let t = Topology.ibm () in
  Alcotest.(check int) "fibers" 23 (Topology.num_fibers t);
  Alcotest.(check int) "undirected IP links" 85 (Topology.num_links t / 2);
  Alcotest.(check int) "nodes" 18 t.Topology.num_nodes

let test_table3_twan () =
  let t = Topology.twan () in
  (* Confidential topology: only O(50) fibers / O(100) links. *)
  Alcotest.(check bool) "O(50) fibers" true
    (Topology.num_fibers t >= 40 && Topology.num_fibers t <= 80);
  Alcotest.(check bool) "O(100) links" true
    (Topology.num_links t / 2 >= 80 && Topology.num_links t / 2 <= 150)

let test_topology_deterministic () =
  let a = Topology.b4 () and b = Topology.b4 () in
  Alcotest.(check bool) "structurally equal" true
    (a.Topology.fibers = b.Topology.fibers && a.Topology.links = b.Topology.links)

let test_topology_by_name () =
  Alcotest.(check string) "b4" "B4" (Topology.by_name "b4").Topology.name;
  Alcotest.check_raises "unknown"
    (Invalid_argument
       "Topology.by_name: unknown topology nope (known: IBM, B4, TWAN, \
        Abilene, SURFnet, grid<K>, wan<SITES>, wan<SITES>x<SEED>)")
    (fun () -> ignore (Topology.by_name "nope"))

let test_links_directed_pairs () =
  (* Every topology's links come in opposite directed pairs. *)
  List.iter
    (fun t ->
      let links = t.Topology.links in
      Alcotest.(check bool)
        (t.Topology.name ^ " has reverse for every link")
        true
        (Array.for_all
           (fun (l : Topology.link) ->
             Array.exists
               (fun (r : Topology.link) ->
                 r.Topology.src = l.Topology.dst
                 && r.Topology.dst = l.Topology.src
                 && r.Topology.fibers = l.Topology.fibers)
               links)
           links))
    (Topology.all ())

let test_fiber_link_consistency () =
  let t = Topology.ibm () in
  (* links_on_fiber inverts link.fibers. *)
  Array.iter
    (fun (l : Topology.link) ->
      List.iter
        (fun f ->
          Alcotest.(check bool) "link listed on its fiber" true
            (List.mem l.Topology.lid (Topology.links_lost_on_cut t f)))
        l.Topology.fibers)
    t.Topology.links

let test_cut_capacity_positive () =
  let t = Topology.b4 () in
  for f = 0 to Topology.num_fibers t - 1 do
    Alcotest.(check bool) "cut loses capacity" true
      (Topology.capacity_lost_on_cut t f >= 2000.0)
    (* at least the base 1000 Gbps pair *)
  done

let test_cut_capacity_range () =
  (* Fig. 1b shape: heterogeneous losses, the biggest cuts losing multiple
     Tbps. *)
  let t = Topology.ibm () in
  let losses =
    Array.init (Topology.num_fibers t) (fun f -> Topology.capacity_lost_on_cut t f)
  in
  let lo, hi = Prete_util.Stats.min_max losses in
  Alcotest.(check bool) "heterogeneous" true (hi > 2.0 *. lo);
  Alcotest.(check bool) "multi-Tbps max" true (hi >= 4000.0)

let test_make_validation () =
  Alcotest.check_raises "bad fiber endpoint"
    (Invalid_argument "Topology.make: bad fiber endpoints") (fun () ->
      ignore
        (Topology.make ~name:"x" ~node_names:[| "a"; "b" |]
           ~fibers:[| (0, 2, 100.0) |] ~links:[||]));
  Alcotest.check_raises "bad fiber ref"
    (Invalid_argument "Topology.make: bad fiber reference") (fun () ->
      ignore
        (Topology.make ~name:"x" ~node_names:[| "a"; "b" |]
           ~fibers:[| (0, 1, 100.0) |]
           ~links:[| (0, 1, 10.0, [ 3 ]) |]))

(* ------------------------------------------------------------------ *)
(* Routing                                                              *)
(* ------------------------------------------------------------------ *)

(* A small handmade topology with known paths: square with diagonal.
   Nodes 0-3; fibers: 0-1, 1-2, 2-3, 3-0, 0-2.  One link pair per fiber. *)
let square () =
  let fibers = [| (0, 1, 100.0); (1, 2, 100.0); (2, 3, 100.0); (3, 0, 100.0); (0, 2, 500.0) |] in
  let links =
    Array.concat
      [
        Array.of_list
          (List.concat_map
             (fun (f, (a, b)) -> [ (a, b, 10.0, [ f ]); (b, a, 10.0, [ f ]) ])
             [ (0, (0, 1)); (1, (1, 2)); (2, (2, 3)); (3, (3, 0)); (4, (0, 2)) ]);
      ]
  in
  Topology.make ~name:"square" ~node_names:[| "n0"; "n1"; "n2"; "n3" |] ~fibers ~links

let hops (l : Topology.link) = ignore l; 1.0

let test_dijkstra_direct () =
  let t = square () in
  match Routing.shortest_path t ~weight:hops ~src:0 ~dst:2 () with
  | Some p ->
    Alcotest.(check int) "one hop via diagonal" 1 (List.length p);
    Alcotest.(check bool) "valid" true (Routing.path_valid t ~src:0 ~dst:2 p)
  | None -> Alcotest.fail "expected a path"

let test_dijkstra_forbidden () =
  let t = square () in
  (* Forbid the diagonal fiber's links: must take 2 hops. *)
  let forbidden_links lid = List.mem 4 (Topology.link t lid).Topology.fibers in
  match Routing.shortest_path t ~weight:hops ~forbidden_links ~src:0 ~dst:2 () with
  | Some p -> Alcotest.(check int) "two hops" 2 (List.length p)
  | None -> Alcotest.fail "expected a path"

let test_dijkstra_disconnected () =
  let t = square () in
  let forbidden_nodes v = v = 1 || v = 3 in
  let forbidden_links lid = List.mem 4 (Topology.link t lid).Topology.fibers in
  Alcotest.(check bool) "no path" true
    (Routing.shortest_path t ~weight:hops ~forbidden_links ~forbidden_nodes ~src:0
       ~dst:2 ()
    = None)

let test_yen_enumerates () =
  let t = square () in
  let paths = Routing.k_shortest t ~weight:hops ~k:3 ~src:0 ~dst:2 () in
  Alcotest.(check int) "three loopless paths" 3 (List.length paths);
  (* Ascending length: 1 hop, then two 2-hop paths. *)
  (match paths with
  | [ a; b; c ] ->
    Alcotest.(check int) "first" 1 (List.length a);
    Alcotest.(check int) "second" 2 (List.length b);
    Alcotest.(check int) "third" 2 (List.length c)
  | _ -> Alcotest.fail "expected 3 paths");
  List.iter
    (fun p ->
      Alcotest.(check bool) "valid loopless" true (Routing.path_valid t ~src:0 ~dst:2 p))
    paths

let test_yen_exhausts () =
  let t = square () in
  let paths = Routing.k_shortest t ~weight:hops ~k:10 ~src:0 ~dst:2 () in
  (* 0-2, 0-1-2, 0-3-2 and nothing else loopless. *)
  Alcotest.(check int) "exactly three exist" 3 (List.length paths);
  (* All distinct. *)
  Alcotest.(check int) "distinct" 3
    (List.length (List.sort_uniq compare paths))

let test_fiber_disjoint () =
  let t = square () in
  let paths = Routing.fiber_disjoint t ~weight:hops ~k:3 ~src:0 ~dst:2 () in
  Alcotest.(check int) "three disjoint routes" 3 (List.length paths);
  (* Pairwise fiber-disjoint. *)
  let fiber_sets = List.map (fun p -> Routing.path_fibers t p) paths in
  List.iteri
    (fun i fs1 ->
      List.iteri
        (fun j fs2 ->
          if i < j then
            Alcotest.(check bool) "disjoint" true
              (not (List.exists (fun f -> List.mem f fs2) fs1)))
        fiber_sets)
    fiber_sets

let test_path_helpers () =
  let t = square () in
  match Routing.shortest_path t ~weight:hops ~src:0 ~dst:3 () with
  | None -> Alcotest.fail "expected path"
  | Some p ->
    let nodes = Routing.path_nodes t p in
    Alcotest.(check (list int)) "nodes" [ 0; 3 ] nodes;
    Alcotest.(check bool) "uses fiber 3" true (Routing.uses_fiber t p 3);
    check_close 1e-9 "length" 100.0 (Routing.path_length_km t p)

let test_b4_all_pairs_connected () =
  let t = Topology.b4 () in
  let n = t.Topology.num_nodes in
  for s = 0 to n - 1 do
    for d = 0 to n - 1 do
      if s <> d then
        Alcotest.(check bool)
          (Printf.sprintf "path %d->%d" s d)
          true
          (Routing.shortest_path t ~src:s ~dst:d () <> None)
    done
  done

let prop_yen_sorted =
  QCheck.Test.make ~name:"yen paths sorted by cost" ~count:30
    QCheck.(pair small_nat small_nat)
    (fun (s, d) ->
      let t = Topology.ibm () in
      let n = t.Topology.num_nodes in
      let s = s mod n and d = d mod n in
      QCheck.assume (s <> d);
      let paths = Routing.k_shortest t ~k:4 ~src:s ~dst:d () in
      let costs =
        List.map
          (fun p ->
            List.fold_left
              (fun acc lid ->
                acc +. 50.0
                +. List.fold_left
                     (fun a f -> a +. (Topology.fiber t f).Topology.length_km)
                     0.0
                     (Topology.link t lid).Topology.fibers)
              0.0 p)
          paths
      in
      let rec sorted = function
        | a :: (b :: _ as rest) -> a <= b +. 1e-9 && sorted rest
        | _ -> true
      in
      paths <> [] && sorted costs)

let prop_paths_loopless =
  QCheck.Test.make ~name:"yen paths valid and loopless" ~count:30
    QCheck.(pair small_nat small_nat)
    (fun (s, d) ->
      let t = Topology.b4 () in
      let n = t.Topology.num_nodes in
      let s = s mod n and d = d mod n in
      QCheck.assume (s <> d);
      let paths = Routing.k_shortest t ~k:5 ~src:s ~dst:d () in
      List.for_all (fun p -> Routing.path_valid t ~src:s ~dst:d p) paths)

(* ------------------------------------------------------------------ *)
(* Tunnels                                                              *)
(* ------------------------------------------------------------------ *)

let test_tunnels_table3_counts () =
  let topo = Topology.b4 () in
  let traffic = Traffic.generate topo in
  let ts = Tunnels.build topo traffic.Traffic.pairs in
  Alcotest.(check int) "52 flows" 52 (Array.length ts.Tunnels.flows);
  (* 4 tunnels per flow = 208 (Table 3), allowing a few flows with fewer
     distinct paths. *)
  let n = Array.length ts.Tunnels.tunnels in
  Alcotest.(check bool) (Printf.sprintf "~208 tunnels (%d)" n) true (n >= 190 && n <= 220)

let test_tunnels_belong_to_flows () =
  let topo = Topology.b4 () in
  let traffic = Traffic.generate topo in
  let ts = Tunnels.build topo traffic.Traffic.pairs in
  Array.iter
    (fun (tn : Tunnels.tunnel) ->
      let f = ts.Tunnels.flows.(tn.Tunnels.owner) in
      Alcotest.(check bool) "tunnel connects its flow endpoints" true
        (Routing.path_valid topo ~src:f.Tunnels.src ~dst:f.Tunnels.dst tn.Tunnels.links))
    ts.Tunnels.tunnels

let test_tunnels_survive_single_cut () =
  (* §4.2: at least one residual tunnel per flow under each single-fiber
     failure scenario (where the remaining graph allows one). *)
  let topo = Topology.b4 () in
  let traffic = Traffic.generate topo in
  let ts = Tunnels.build topo traffic.Traffic.pairs in
  let violations = ref 0 in
  Array.iter
    (fun (f : Tunnels.flow) ->
      for fid = 0 to Topology.num_fibers topo - 1 do
        let surviving =
          Tunnels.surviving_tunnels ts f.Tunnels.flow_id ~failed_fibers:[ fid ]
        in
        if surviving = [] then begin
          (* Only acceptable when the cut disconnects the pair. *)
          let forbidden_links lid =
            List.mem fid (Topology.link topo lid).Topology.fibers
          in
          match
            Routing.shortest_path topo ~forbidden_links ~src:f.Tunnels.src
              ~dst:f.Tunnels.dst ()
          with
          | Some _ -> incr violations
          | None -> ()
        end
      done)
    ts.Tunnels.flows;
  Alcotest.(check int) "no avoidable black holes" 0 !violations

let test_affected_fraction_b4 () =
  (* Fig. 1c: on B4 a large share of flows is touched by a single cut. *)
  let topo = Topology.b4 () in
  let traffic = Traffic.generate topo in
  let ts = Tunnels.build topo traffic.Traffic.pairs in
  let fractions =
    Array.init (Topology.num_fibers topo) (fun f ->
        fst (Tunnels.affected_fraction ts f))
  in
  let avg = Prete_util.Stats.mean fractions in
  Alcotest.(check bool)
    (Printf.sprintf "avg affected flow share %.2f in [0.1, 0.6]" avg)
    true
    (avg >= 0.1 && avg <= 0.6)

let test_tunnel_survives () =
  let topo = square () in
  let ts = Tunnels.build topo [ (0, 2) ] in
  let tn = List.hd (Tunnels.tunnels_of_flow ts 0) in
  let its_fibers = Routing.path_fibers topo tn.Tunnels.links in
  Alcotest.(check bool) "dies with its fiber" false
    (Tunnels.tunnel_survives ts tn ~failed_fibers:its_fibers);
  Alcotest.(check bool) "survives empty scenario" true
    (Tunnels.tunnel_survives ts tn ~failed_fibers:[])

(* ------------------------------------------------------------------ *)
(* Traffic                                                              *)
(* ------------------------------------------------------------------ *)

let test_traffic_sizes () =
  let topo = Topology.ibm () in
  let tr = Traffic.generate topo in
  Alcotest.(check int) "85 flows (Table 3)" 85 (List.length tr.Traffic.pairs);
  Alcotest.(check int) "24 matrices (Table 3)" 24 (Array.length tr.Traffic.matrices)

let test_traffic_positive () =
  let topo = Topology.b4 () in
  let tr = Traffic.generate topo in
  Array.iter
    (fun row -> Array.iter (fun d -> Alcotest.(check bool) "positive" true (d > 0.0)) row)
    tr.Traffic.matrices

let test_traffic_scaling_linear () =
  let topo = Topology.b4 () in
  let tr = Traffic.generate topo in
  let d1 = Traffic.total tr ~scale:1.0 ~epoch:0 in
  let d2 = Traffic.total tr ~scale:2.0 ~epoch:0 in
  check_close 1e-6 "linear in scale" (2.0 *. d1) d2

let test_traffic_diurnal () =
  check_close 1e-9 "peak at 21h" 1.0 (Traffic.diurnal_multiplier 21);
  check_close 1e-9 "trough at 9h" 0.6 (Traffic.diurnal_multiplier 9);
  for h = 0 to 23 do
    let m = Traffic.diurnal_multiplier h in
    Alcotest.(check bool) "bounded" true (m >= 0.6 -. 1e-9 && m <= 1.0 +. 1e-9)
  done

let test_traffic_calibration () =
  (* At scale 1, shortest-path routing should hit exactly the target
     utilization on the busiest link. *)
  let topo = Topology.b4 () in
  let tr = Traffic.generate ~utilization:0.35 topo in
  let link_load = Array.make (Topology.num_links topo) 0.0 in
  List.iteri
    (fun i (s, d) ->
      match Routing.shortest_path topo ~src:s ~dst:d () with
      | None -> Alcotest.fail "disconnected"
      | Some p ->
        List.iter
          (fun lid -> link_load.(lid) <- link_load.(lid) +. tr.Traffic.base.(i))
          p)
    tr.Traffic.pairs;
  let worst = ref 0.0 in
  Array.iteri
    (fun lid load ->
      let u = load /. (Topology.link topo lid).Topology.capacity in
      if u > !worst then worst := u)
    link_load;
  check_close 1e-6 "busiest link at target" 0.35 !worst

(* ------------------------------------------------------------------ *)
(* Topology_io                                                          *)
(* ------------------------------------------------------------------ *)

let test_io_roundtrip () =
  List.iter
    (fun t ->
      let t' = Topology_io.of_string (Topology_io.to_string t) in
      Alcotest.(check string) "name" t.Topology.name t'.Topology.name;
      Alcotest.(check int) "nodes" t.Topology.num_nodes t'.Topology.num_nodes;
      Alcotest.(check bool) "fibers equal" true (t.Topology.fibers = t'.Topology.fibers);
      Alcotest.(check bool) "links equal" true (t.Topology.links = t'.Topology.links))
    (Topology.all ())

let test_io_parses_handwritten () =
  let text =
    "# a triangle\n\
     topology tri\n\
     node a\n\
     node b\n\
     node c\n\
     fiber a b 100\n\
     fiber b c 200  # inline comment\n\
     link a b 400 0\n\
     link b a 400 0\n\
     link a c 100 0 1\n"
  in
  let t = Topology_io.of_string text in
  Alcotest.(check string) "name" "tri" t.Topology.name;
  Alcotest.(check int) "3 nodes" 3 t.Topology.num_nodes;
  Alcotest.(check int) "2 fibers" 2 (Topology.num_fibers t);
  Alcotest.(check int) "3 links" 3 (Topology.num_links t);
  (* The express link rides both fibers. *)
  Alcotest.(check (list int)) "express fibers" [ 0; 1 ] (Topology.link t 2).Topology.fibers

let test_io_errors () =
  let expect_line n text =
    try
      ignore (Topology_io.of_string text);
      Alcotest.fail "expected Parse_error"
    with Topology_io.Parse_error (line, _) -> Alcotest.(check int) "line" n line
  in
  expect_line 2 "topology x\nnode a\u{0020}b c\n";
  expect_line 3 "topology x\nnode a\nfiber a zz 10\n";
  expect_line 4 "topology x\nnode a\nnode b\nlink a b 10 7\n";
  expect_line 0 "node a\n";
  expect_line 2 "topology x\ntopology y\n" |> ignore

let test_io_file_roundtrip () =
  let t = Topology.b4 () in
  let path = Filename.temp_file "prete_topo" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Topology_io.save t path;
      let t' = Topology_io.load path in
      Alcotest.(check bool) "file round trip" true (t.Topology.links = t'.Topology.links))

(* ------------------------------------------------------------------ *)
(* Routing on per-domain scratch == the reference it replaced          *)
(* ------------------------------------------------------------------ *)

(* For every fiber of IBM, B4 and TWAN at ratios 0.5, 1 and 2, the two
   candidate lists [Tunnel_update.react] builds its new tunnels from (the
   fiber-disjoint and k-shortest paths of each affected flow, with the
   degraded fiber's links priced out), equal the reference's path for
   path; so do the default-weight shortest path of every flow and the
   tunnel set's own candidate lists. *)
let test_routing_matches_reference () =
  List.iter
    (fun name ->
      let topo = Topology.by_name name in
      let pairs = (Traffic.generate topo).Traffic.pairs in
      let ts = Tunnels.build topo pairs in
      let same what a b =
        if a <> b then Alcotest.failf "%s %s: paths differ from the reference" name what
      in
      List.iter
        (fun (src, dst) ->
          same "shortest_path" (Routing.shortest_path topo ~src ~dst ())
            (Ref_routing.shortest_path topo ~src ~dst ());
          same "fiber_disjoint k=4" (Routing.fiber_disjoint topo ~k:4 ~src ~dst ())
            (Ref_routing.fiber_disjoint topo ~k:4 ~src ~dst ());
          same "k_shortest k=8" (Routing.k_shortest topo ~k:8 ~src ~dst ())
            (Ref_routing.k_shortest topo ~k:8 ~src ~dst ()))
        pairs;
      let nl = Topology.num_links topo in
      for fb = 0 to Topology.num_fibers topo - 1 do
        let on_fiber =
          Array.init nl (fun lid -> List.mem fb (Topology.link topo lid).Topology.fibers)
        in
        let weights =
          Array.init nl (fun lid ->
              if on_fiber.(lid) then 1e9
              else
                List.fold_left
                  (fun acc f -> acc +. (Topology.fiber topo f).Topology.length_km)
                  50.0 (Topology.link topo lid).Topology.fibers)
        in
        let weight (l : Topology.link) = weights.(l.Topology.lid) in
        Array.iter
          (fun (f : Tunnels.flow) ->
            let lambda =
              List.length
                (List.filter
                   (fun (tn : Tunnels.tunnel) ->
                     List.exists (fun lid -> on_fiber.(lid)) tn.Tunnels.links)
                   (Tunnels.tunnels_of_flow ts f.Tunnels.flow_id))
            in
            if lambda > 0 then
              List.iter
                (fun ratio ->
                  let want = int_of_float (Float.ceil (ratio *. float_of_int lambda)) in
                  let src = f.Tunnels.src and dst = f.Tunnels.dst in
                  let what = Printf.sprintf "fiber %d ratio %g flow %d" fb ratio f.Tunnels.flow_id in
                  same (what ^ " fiber_disjoint")
                    (Routing.fiber_disjoint topo ~weight ~k:(want + 2) ~src ~dst ())
                    (Ref_routing.fiber_disjoint topo ~weight ~k:(want + 2) ~src ~dst ());
                  same (what ^ " k_shortest")
                    (Routing.k_shortest topo ~weight ~k:(want + 4) ~src ~dst ())
                    (Ref_routing.k_shortest topo ~weight ~k:(want + 4) ~src ~dst ()))
                [ 0.5; 1.0; 2.0 ])
          ts.Tunnels.flows
      done)
    [ "IBM"; "B4"; "TWAN" ]

(* A weight that routes again gets its own scratch: the outer search's
   distances are not overwritten. *)
let test_routing_reentrant () =
  let t = square () in
  let calls = ref 0 in
  let weight (l : Topology.link) =
    incr calls;
    ignore (Routing.shortest_path t ~weight:hops ~src:1 ~dst:3 ());
    hops l
  in
  Alcotest.(check (option (list int))) "same path as plain hop weight"
    (Routing.shortest_path t ~weight:hops ~src:0 ~dst:2 ())
    (Routing.shortest_path t ~weight ~src:0 ~dst:2 ());
  Alcotest.(check bool) "weight consulted" true (!calls > 0)

(* ------------------------------------------------------------------ *)

let qsuite tests = List.map (QCheck_alcotest.to_alcotest ~long:false) tests

let () =
  Alcotest.run "prete_net"
    [
      ( "topology",
        [
          Alcotest.test_case "Table 3: B4" `Quick test_table3_b4;
          Alcotest.test_case "Table 3: IBM" `Quick test_table3_ibm;
          Alcotest.test_case "Table 3: TWAN" `Quick test_table3_twan;
          Alcotest.test_case "deterministic" `Quick test_topology_deterministic;
          Alcotest.test_case "by_name" `Quick test_topology_by_name;
          Alcotest.test_case "directed pairs" `Quick test_links_directed_pairs;
          Alcotest.test_case "fiber/link consistency" `Quick test_fiber_link_consistency;
          Alcotest.test_case "cut capacity positive" `Quick test_cut_capacity_positive;
          Alcotest.test_case "cut capacity range" `Quick test_cut_capacity_range;
          Alcotest.test_case "constructor validation" `Quick test_make_validation;
        ] );
      ( "routing",
        [
          Alcotest.test_case "dijkstra direct" `Quick test_dijkstra_direct;
          Alcotest.test_case "dijkstra forbidden" `Quick test_dijkstra_forbidden;
          Alcotest.test_case "dijkstra disconnected" `Quick test_dijkstra_disconnected;
          Alcotest.test_case "yen enumerates" `Quick test_yen_enumerates;
          Alcotest.test_case "yen exhausts" `Quick test_yen_exhausts;
          Alcotest.test_case "fiber disjoint" `Quick test_fiber_disjoint;
          Alcotest.test_case "path helpers" `Quick test_path_helpers;
          Alcotest.test_case "B4 connected" `Quick test_b4_all_pairs_connected;
          Alcotest.test_case "paths == reference (IBM, B4, TWAN)" `Quick
            test_routing_matches_reference;
          Alcotest.test_case "re-entrant weight" `Quick test_routing_reentrant;
        ] );
      ("routing.props", qsuite [ prop_yen_sorted; prop_paths_loopless ]);
      ( "tunnels",
        [
          Alcotest.test_case "Table 3 counts" `Quick test_tunnels_table3_counts;
          Alcotest.test_case "tunnels belong to flows" `Quick test_tunnels_belong_to_flows;
          Alcotest.test_case "survive single cuts" `Quick test_tunnels_survive_single_cut;
          Alcotest.test_case "Fig 1c affected fraction" `Quick test_affected_fraction_b4;
          Alcotest.test_case "tunnel_survives" `Quick test_tunnel_survives;
        ] );
      ( "topology_io",
        [
          Alcotest.test_case "round trip (built-ins)" `Quick test_io_roundtrip;
          Alcotest.test_case "handwritten file" `Quick test_io_parses_handwritten;
          Alcotest.test_case "parse errors" `Quick test_io_errors;
          Alcotest.test_case "file round trip" `Quick test_io_file_roundtrip;
        ] );
      ( "traffic",
        [
          Alcotest.test_case "Table 3 sizes" `Quick test_traffic_sizes;
          Alcotest.test_case "positive demands" `Quick test_traffic_positive;
          Alcotest.test_case "linear scaling" `Quick test_traffic_scaling_linear;
          Alcotest.test_case "diurnal profile" `Quick test_traffic_diurnal;
          Alcotest.test_case "calibration" `Quick test_traffic_calibration;
        ] );
    ]
