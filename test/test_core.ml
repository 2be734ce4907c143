(* Tests for the prete core: scenarios, Eqn.-1 calibration, Algorithm 1
   tunnel updates, the TE optimization (heuristic vs exact MIP vs Benders),
   TE schemes, availability evaluation, controller pipeline, and the
   uncertainty study. *)

open Prete
open Prete_net

let check_close eps = Alcotest.(check (float eps))

(* Small fixture: square topology with diagonal (known paths). *)
let square () =
  let fibers =
    [| (0, 1, 100.0); (1, 2, 100.0); (2, 3, 100.0); (3, 0, 100.0); (0, 2, 500.0) |]
  in
  let links =
    Array.of_list
      (List.concat_map
         (fun (f, (a, b)) -> [ (a, b, 10.0, [ f ]); (b, a, 10.0, [ f ]) ])
         [ (0, (0, 1)); (1, (1, 2)); (2, (2, 3)); (3, (3, 0)); (4, (0, 2)) ])
  in
  Topology.make ~name:"square" ~node_names:[| "n0"; "n1"; "n2"; "n3" |] ~fibers ~links

let b4_env =
  lazy
    (let topo = Topology.b4 () in
     Availability.make_env topo)

let predictor_true topo f =
  Prete_optics.Hazard.eval ~num_fibers:(Topology.num_fibers topo) f

(* ------------------------------------------------------------------ *)
(* Scenario                                                             *)
(* ------------------------------------------------------------------ *)

let test_scenario_single_order () =
  let probs = [| 0.1; 0.2 |] in
  let set = Scenario.enumerate ~probs () in
  Alcotest.(check int) "1 + N scenarios" 3 (Array.length set.Scenario.scenarios);
  check_close 1e-12 "no-failure prob" (0.9 *. 0.8) (Scenario.no_failure set).Scenario.prob;
  check_close 1e-12 "covered" (0.72 +. (0.1 *. 0.8) +. (0.9 *. 0.2)) set.Scenario.covered_prob;
  check_close 1e-12 "residual" (0.1 *. 0.2) set.Scenario.residual_prob

let test_scenario_order2 () =
  let probs = [| 0.1; 0.2; 0.3 |] in
  let set = Scenario.enumerate ~probs ~max_order:2 () in
  Alcotest.(check int) "1 + 3 + 3 scenarios" 7 (Array.length set.Scenario.scenarios);
  (* Explicit probability of the {0, 2} scenario. *)
  let s02 =
    Array.to_list set.Scenario.scenarios
    |> List.find (fun s -> s.Scenario.fibers = [ 0; 2 ])
  in
  check_close 1e-12 "pair probability" (0.1 *. 0.8 *. 0.3) s02.Scenario.prob

let test_scenario_cutoff () =
  let probs = [| 0.5; 0.001 |] in
  let set = Scenario.enumerate ~probs ~cutoff:0.01 () in
  (* The 0.001-fiber single-cut scenario (prob ~0.0005) is cut off. *)
  Alcotest.(check int) "cutoff drops rare scenario" 2 (Array.length set.Scenario.scenarios);
  Alcotest.(check bool) "no-failure kept" true
    (Array.exists (fun s -> s.Scenario.fibers = []) set.Scenario.scenarios)

let test_scenario_normalize () =
  let probs = [| 0.1; 0.2; 0.3 |] in
  let set = Scenario.normalize (Scenario.enumerate ~probs ()) in
  check_close 1e-12 "covered = 1" 1.0 set.Scenario.covered_prob;
  let sum = Array.fold_left (fun a s -> a +. s.Scenario.prob) 0.0 set.Scenario.scenarios in
  check_close 1e-12 "probs sum to 1" 1.0 sum

let test_scenario_probability () =
  let probs = [| 0.1; 0.2; 0.3 |] in
  check_close 1e-12 "explicit" (0.1 *. 0.8 *. 0.7) (Scenario.probability ~probs [ 0 ]);
  check_close 1e-12 "empty" (0.9 *. 0.8 *. 0.7) (Scenario.probability ~probs [])

let test_scenario_invalid () =
  Alcotest.check_raises "bad prob"
    (Invalid_argument "Scenario.enumerate: probability out of [0,1]") (fun () ->
      ignore (Scenario.enumerate ~probs:[| 1.5 |] ()))

let test_scenario_classes () =
  let topo = square () in
  let ts = Tunnels.build topo [ (0, 2) ] in
  let probs = Array.make (Topology.num_fibers topo) 0.1 in
  let set = Scenario.enumerate ~probs () in
  let tunnels = Tunnels.tunnels_of_flow ts 0 in
  let classes = Scenario.Classes.of_flow ts ~tunnels set in
  (* Class probabilities sum to the covered probability. *)
  let psum =
    Array.fold_left (fun a c -> a +. c.Scenario.Classes.prob) 0.0 classes
  in
  check_close 1e-12 "class mass" set.Scenario.covered_prob psum;
  (* Members partition the scenario set. *)
  let member_count =
    Array.fold_left (fun a c -> a + List.length c.Scenario.Classes.members) 0 classes
  in
  Alcotest.(check int) "partition" (Array.length set.Scenario.scenarios) member_count;
  (* Scenarios that kill no tunnel of the flow share the full-survivor
     class with the no-failure scenario. *)
  Alcotest.(check bool) "at least 2 classes" true (Array.length classes >= 2)

(* ------------------------------------------------------------------ *)
(* Calibrate                                                            *)
(* ------------------------------------------------------------------ *)

let test_calibrate_eqn1 () =
  let topo = Topology.b4 () in
  let model = Prete_optics.Fiber_model.generate topo in
  let rng = Prete_util.Rng.create 3 in
  let feats = Prete_optics.Hazard.sample_features rng ~topo ~fiber:2 ~epoch:0 in
  let obs = { Calibrate.degraded = [ (2, feats) ]; Calibrate.will_cut = [] } in
  let p = Calibrate.probabilities (Calibrate.Calibrated (fun _ -> 0.42)) model obs in
  check_close 1e-12 "degraded fiber gets p_NN" 0.42 p.(2);
  (* Theorem 4.1 branch. *)
  check_close 1e-12 "others get (1-alpha) p_i"
    ((1.0 -. model.Prete_optics.Fiber_model.alpha)
    *. model.Prete_optics.Fiber_model.p_cut.(5))
    p.(5)

let test_calibrate_static_oracle () =
  let topo = Topology.b4 () in
  let model = Prete_optics.Fiber_model.generate topo in
  let obs = { Calibrate.degraded = []; Calibrate.will_cut = [ 7 ] } in
  let st = Calibrate.probabilities Calibrate.Static model obs in
  Alcotest.(check bool) "static = p_i" true (st = model.Prete_optics.Fiber_model.p_cut);
  let oracle = Calibrate.probabilities Calibrate.Oracle model obs in
  check_close 1e-12 "cutting fiber" 1.0 oracle.(7);
  check_close 1e-12 "other fiber" 0.0 oracle.(0)

let test_calibrate_clamps () =
  let topo = Topology.b4 () in
  let model = Prete_optics.Fiber_model.generate topo in
  let rng = Prete_util.Rng.create 3 in
  let feats = Prete_optics.Hazard.sample_features rng ~topo ~fiber:0 ~epoch:0 in
  let obs = { Calibrate.degraded = [ (0, feats) ]; Calibrate.will_cut = [] } in
  let p = Calibrate.probabilities (Calibrate.Calibrated (fun _ -> 7.0)) model obs in
  check_close 1e-12 "clamped to 1" 1.0 p.(0)

(* ------------------------------------------------------------------ *)
(* Tunnel_update (Algorithm 1)                                          *)
(* ------------------------------------------------------------------ *)

let b4_tunnels =
  lazy
    (let topo = Topology.b4 () in
     let traffic = Traffic.generate topo in
     Tunnels.build topo traffic.Traffic.pairs)

let test_algorithm1_disjoint_from_degraded () =
  let ts = Lazy.force b4_tunnels in
  let upd = Tunnel_update.react ts ~degraded_fiber:3 () in
  Alcotest.(check bool) "created some tunnels" true (Tunnel_update.num_new upd > 0);
  Array.iter
    (fun (tn : Tunnels.tunnel) ->
      Alcotest.(check bool) "avoids degraded fiber" false
        (Routing.uses_fiber ts.Tunnels.topo tn.Tunnels.links 3))
    upd.Tunnel_update.new_tunnels

let test_algorithm1_only_affected_flows () =
  let ts = Lazy.force b4_tunnels in
  let fiber = 3 in
  let upd = Tunnel_update.react ts ~degraded_fiber:fiber () in
  let affected = Tunnels.flows_affected_by_cut ts fiber in
  Array.iteri
    (fun f new_ids ->
      if new_ids <> [] then
        Alcotest.(check bool) "flow is affected" true (List.mem f affected))
    upd.Tunnel_update.new_of_flow

let test_algorithm1_ratio_scales () =
  let ts = Lazy.force b4_tunnels in
  let n1 = Tunnel_update.num_new (Tunnel_update.react ~ratio:1.0 ts ~degraded_fiber:3 ()) in
  let n2 = Tunnel_update.num_new (Tunnel_update.react ~ratio:2.0 ts ~degraded_fiber:3 ()) in
  let n0 = Tunnel_update.num_new (Tunnel_update.react ~ratio:0.0 ts ~degraded_fiber:3 ()) in
  Alcotest.(check int) "ratio 0 creates nothing" 0 n0;
  Alcotest.(check bool) "ratio 2 creates more" true (n2 > n1)

let test_algorithm1_merged_consistent () =
  let ts = Lazy.force b4_tunnels in
  let upd = Tunnel_update.react ts ~degraded_fiber:0 () in
  let merged = Tunnel_update.merged upd in
  Alcotest.(check int) "tunnel count"
    (Array.length ts.Tunnels.tunnels + Tunnel_update.num_new upd)
    (Array.length merged.Tunnels.tunnels);
  (* Ids are consistent with positions. *)
  Array.iteri
    (fun i (tn : Tunnels.tunnel) -> Alcotest.(check int) "id = index" i tn.Tunnels.tunnel_id)
    merged.Tunnels.tunnels;
  (* of_flow lists every new tunnel under its owner. *)
  Array.iter
    (fun (tn : Tunnels.tunnel) ->
      Alcotest.(check bool) "listed under owner" true
        (List.mem tn.Tunnels.tunnel_id merged.Tunnels.of_flow.(tn.Tunnels.owner)))
    upd.Tunnel_update.new_tunnels;
  Alcotest.(check bool) "is_new split" true
    (Tunnel_update.is_new upd (Array.length ts.Tunnels.tunnels))

let test_algorithm1_no_duplicates () =
  let ts = Lazy.force b4_tunnels in
  let upd = Tunnel_update.react ts ~degraded_fiber:5 () in
  let merged = Tunnel_update.merged upd in
  Array.iteri
    (fun f tids ->
      ignore f;
      let paths = List.map (fun tid -> merged.Tunnels.tunnels.(tid).Tunnels.links) tids in
      Alcotest.(check int) "no duplicate paths per flow"
        (List.length paths)
        (List.length (List.sort_uniq compare paths)))
    merged.Tunnels.of_flow

(* Pins of [react]'s whole output — new tunnels (id, owner, links) and
   the per-flow id lists — for every fiber of three topologies, recorded
   before the routing internals moved to array-backed sets. *)
let update_digest (u : Tunnel_update.t) =
  let b = Buffer.create 1024 in
  let int i = Buffer.add_string b (string_of_int i); Buffer.add_char b ',' in
  Array.iter
    (fun (tn : Tunnels.tunnel) ->
      int tn.Tunnels.tunnel_id; int tn.Tunnels.owner;
      List.iter int tn.Tunnels.links; Buffer.add_char b ';')
    u.Tunnel_update.new_tunnels;
  Array.iter (fun l -> List.iter int l; Buffer.add_char b ';') u.Tunnel_update.new_of_flow;
  Digest.string (Buffer.contents b)

let test_algorithm1_pins () =
  List.iter
    (fun (name, expect) ->
      let topo = Topology.by_name name in
      let ts = Tunnels.build topo (Traffic.generate topo).Traffic.pairs in
      let digests =
        List.init (Topology.num_fibers topo) (fun fb ->
            update_digest (Tunnel_update.react ts ~degraded_fiber:fb ()))
      in
      Alcotest.(check string) (name ^ ": every fiber") expect
        (Digest.to_hex (Digest.string (String.concat "" digests))))
    [ ("IBM", "83da8860bb350e11bac3e761898bcbf0");
      ("B4", "0f20525906480d1300313f91be35eea6");
      ("TWAN", "d08f3981090dce61ce3abea212e85ac3") ]

(* ------------------------------------------------------------------ *)
(* Te: optimization                                                     *)
(* ------------------------------------------------------------------ *)

(* Tiny instance where numbers can be checked by hand: the paper's Fig. 2
   network — 3 nodes, links s1s2, s1s3, s2s3 of capacity 10; flows s1→s2
   (one tunnel) and s1→s3 (two tunnels). *)
let fig2_topology () =
  let fibers = [| (0, 1, 100.0); (0, 2, 100.0); (1, 2, 100.0) |] in
  let links =
    Array.of_list
      (List.concat_map
         (fun (f, (a, b)) -> [ (a, b, 10.0, [ f ]); (b, a, 10.0, [ f ]) ])
         [ (0, (0, 1)); (1, (0, 2)); (2, (1, 2)) ])
  in
  Topology.make ~name:"fig2" ~node_names:[| "s1"; "s2"; "s3" |] ~fibers ~links

let fig2_problem ~demands ~probs ~beta =
  let topo = fig2_topology () in
  let ts = Tunnels.build ~per_flow:2 topo [ (0, 1); (0, 2) ] in
  Te.make_problem ~ts ~demands ~probs ~beta ()

let test_te_fig2_feasible () =
  (* Fig. 2 probabilities; both flows demand 10: feasible with zero loss
     at beta = 0.99 only by dropping lossy scenarios. *)
  let p = fig2_problem ~demands:[| 10.0; 10.0 |] ~probs:[| 0.005; 0.009; 0.001 |] ~beta:0.99 in
  let sol = Te.solve p in
  check_close 1e-6 "phi = 0 (the paper's 10-unit solution)" 0.0 sol.Te.phi;
  (* Allocation respects capacity. *)
  Alcotest.(check bool) "expected served close to 1" true (sol.Te.expected_served > 0.98)

let test_te_phi_positive_when_scarce () =
  let p = fig2_problem ~demands:[| 15.0; 15.0 |] ~probs:[| 0.005; 0.009; 0.001 |] ~beta:0.99 in
  let sol = Te.solve p in
  Alcotest.(check bool) (Printf.sprintf "phi %.3f > 0" sol.Te.phi) true (sol.Te.phi > 0.01)

let test_te_solution_feasible () =
  let p = fig2_problem ~demands:[| 8.0; 9.0 |] ~probs:[| 0.005; 0.009; 0.001 |] ~beta:0.99 in
  let sol = Te.solve p in
  (* Capacity feasibility. *)
  let topo = p.Te.ts.Tunnels.topo in
  let load = Array.make (Topology.num_links topo) 0.0 in
  Array.iter
    (fun (tn : Tunnels.tunnel) ->
      List.iter
        (fun lid -> load.(lid) <- load.(lid) +. sol.Te.alloc.(tn.Tunnels.tunnel_id))
        tn.Tunnels.links)
    p.Te.ts.Tunnels.tunnels;
  Array.iteri
    (fun lid l ->
      Alcotest.(check bool) "within capacity" true
        (l <= (Topology.link topo lid).Topology.capacity +. 1e-6))
    load;
  (* Covered classes meet (1 - phi) of demand. *)
  Array.iteri
    (fun f cls ->
      Array.iteri
        (fun ci (c : Scenario.Classes.cls) ->
          if sol.Te.delta.(f).(ci) then begin
            let loss = Te.class_loss p ~alloc:sol.Te.alloc ~flow:f c in
            Alcotest.(check bool) "covered loss <= phi" true (loss <= sol.Te.phi +. 1e-6)
          end)
        cls)
    sol.Te.classes;
  (* Coverage (5). *)
  Array.iteri
    (fun f cls ->
      let covered =
        Array.to_list cls
        |> List.mapi (fun ci c ->
               if sol.Te.delta.(f).(ci) then c.Scenario.Classes.prob else 0.0)
        |> List.fold_left ( +. ) 0.0
      in
      Alcotest.(check bool) "coverage >= beta" true (covered >= p.Te.beta -. 1e-9))
    sol.Te.classes

let test_te_heuristic_matches_mip () =
  (* On small instances the heuristic must find the exact optimum. *)
  List.iter
    (fun (d1, d2, beta) ->
      let p =
        fig2_problem ~demands:[| d1; d2 |] ~probs:[| 0.02; 0.03; 0.01 |] ~beta
      in
      let h = Te.solve ~second_phase:false p in
      let e = Te.solve_mip p in
      check_close 1e-5
        (Printf.sprintf "phi at (%g, %g, %g)" d1 d2 beta)
        e.Te.phi h.Te.phi)
    [ (10.0, 10.0, 0.9); (15.0, 15.0, 0.9); (12.0, 18.0, 0.95); (20.0, 5.0, 0.9) ]

let test_te_benders_matches_mip () =
  List.iter
    (fun (d1, d2, beta) ->
      let p =
        fig2_problem ~demands:[| d1; d2 |] ~probs:[| 0.02; 0.03; 0.01 |] ~beta
      in
      let b = Te.solve_benders p in
      let e = Te.solve_mip p in
      check_close 1e-3
        (Printf.sprintf "phi at (%g, %g, %g)" d1 d2 beta)
        e.Te.phi b.Te.phi)
    [ (10.0, 10.0, 0.9); (15.0, 15.0, 0.9); (12.0, 18.0, 0.95) ]

let test_te_benders_converges_b4 () =
  (* Benders on a real topology instance terminates and agrees with the
     heuristic's bound direction. *)
  let topo = Topology.b4 () in
  let traffic = Traffic.generate topo in
  let ts = Tunnels.build topo traffic.Traffic.pairs in
  let model = Prete_optics.Fiber_model.generate topo in
  let demands = Traffic.demand traffic ~scale:2.0 ~epoch:12 in
  let p = Te.make_problem ~ts ~demands ~probs:model.Prete_optics.Fiber_model.p_cut ~beta:0.99 () in
  let b = Te.solve_benders p in
  let h = Te.solve ~second_phase:false p in
  Alcotest.(check bool) "benders <= heuristic + eps" true (b.Te.phi <= h.Te.phi +. 1e-3)

let test_te_monotone_in_beta () =
  (* Raising beta cannot reduce the optimal loss. *)
  let phi beta =
    (Te.solve ~second_phase:false
       (fig2_problem ~demands:[| 15.0; 15.0 |] ~probs:[| 0.02; 0.03; 0.01 |] ~beta))
      .Te.phi
  in
  Alcotest.(check bool) "phi(0.999) >= phi(0.9)" true (phi 0.999 >= phi 0.9 -. 1e-9)

let test_te_make_problem_validation () =
  let topo = fig2_topology () in
  let ts = Tunnels.build ~per_flow:2 topo [ (0, 1) ] in
  Alcotest.check_raises "demand mismatch"
    (Invalid_argument "Te.make_problem: demands/flows mismatch") (fun () ->
      ignore (Te.make_problem ~ts ~demands:[| 1.0; 2.0 |] ~probs:[| 0.1; 0.1; 0.1 |] ~beta:0.9 ()))

let test_te_beta_above_truncated_mass () =
  (* Five fibers at p = 0.05, truncated at order 1: the enumerated
     scenarios cover ~0.9774 of the probability mass.  Asking for
     β = 0.999 without normalization is impossible and must be rejected
     eagerly by [make_problem]; with normalization (the default) the
     covered mass is rescaled to 1 and the problem solves. *)
  let topo = square () in
  let ts = Tunnels.build topo [ (0, 2) ] in
  let demands = [| 5.0 |] in
  let probs = Array.make (Topology.num_fibers topo) 0.05 in
  (match
     Te.make_problem ~ts ~demands ~probs ~max_order:1 ~beta:0.999 ~normalize:false ()
   with
  | exception Te.Infeasible_problem msg ->
      let mentions_beta =
        let n = String.length msg and m = String.length "beta" in
        let rec scan i = i + m <= n && (String.sub msg i m = "beta" || scan (i + 1)) in
        scan 0
      in
      Alcotest.(check bool) "message names beta" true mentions_beta
  | _ -> Alcotest.fail "expected Infeasible_problem for beta above covered mass");
  (* Same construction with normalization succeeds and solves. *)
  let p = Te.make_problem ~ts ~demands ~probs ~max_order:1 ~beta:0.999 () in
  let sol = Te.solve p in
  Alcotest.(check bool) "solves once normalized" true (sol.Te.phi >= 0.0);
  Alcotest.(check bool) "not degraded" false sol.Te.degraded

let test_te_admission_caps () =
  let p = fig2_problem ~demands:[| 25.0; 25.0 |] ~probs:[| 0.02; 0.03; 0.01 |] ~beta:0.9 in
  let adm = Te.solve_admission p in
  Array.iteri
    (fun f b ->
      Alcotest.(check bool) "b <= d" true (b <= p.Te.demands.(f) +. 1e-9);
      Alcotest.(check bool) "b >= 0" true (b >= -1e-9))
    adm.Te.admitted;
  (* Covered classes support the admitted rate. *)
  Array.iteri
    (fun f cls ->
      Array.iteri
        (fun ci (c : Scenario.Classes.cls) ->
          if adm.Te.adm_delta.(f).(ci) then begin
            let surviving =
              List.fold_left
                (fun acc tid -> acc +. adm.Te.adm_alloc.(tid))
                0.0 c.Scenario.Classes.survivors
            in
            Alcotest.(check bool) "survivors carry admission" true
              (surviving >= adm.Te.admitted.(f) -. 1e-6)
          end)
        cls)
    adm.Te.adm_classes

let test_te_admission_saturates_when_abundant () =
  let p = fig2_problem ~demands:[| 3.0; 3.0 |] ~probs:[| 0.02; 0.03; 0.01 |] ~beta:0.9 in
  let adm = Te.solve_admission p in
  Array.iteri
    (fun f b -> check_close 1e-6 "full admission" p.Te.demands.(f) b)
    adm.Te.admitted

let test_te_admission_skip_unprotectable () =
  (* A flow with a single tunnel cannot survive its own fiber's cut: full
     coverage forces b = 0 unless unprotectable classes are skipped
     (FFC-k semantics). *)
  let topo = fig2_topology () in
  (* Hand-built single-tunnel flow: Tunnels.build would repair in a
     residual tunnel per §4.2, which is exactly what we must avoid here. *)
  let direct =
    List.find_map
      (fun (lid, dst) -> if dst = 1 then Some lid else None)
      (Topology.neighbors topo 0)
    |> Option.get
  in
  let ts =
    {
      Tunnels.topo;
      Tunnels.flows = [| { Tunnels.flow_id = 0; Tunnels.src = 0; Tunnels.dst = 1 } |];
      Tunnels.tunnels = [| { Tunnels.tunnel_id = 0; Tunnels.owner = 0; Tunnels.links = [ direct ] } |];
      Tunnels.of_flow = [| [ 0 ] |];
    }
  in
  let p = Te.make_problem ~ts ~demands:[| 5.0 |] ~probs:[| 0.02; 0.03; 0.01 |] ~beta:0.999 () in
  let strict = Te.solve_admission ~max_rounds:1 p in
  check_close 1e-9 "strict coverage blocks admission" 0.0 strict.Te.admitted.(0);
  let lenient = Te.solve_admission ~max_rounds:1 ~skip_unprotectable:true p in
  check_close 1e-6 "skipping unprotectable admits" 5.0 lenient.Te.admitted.(0)

let test_te_new_tunnels_reduce_loss () =
  (* Algorithm 1's value inside the optimization: with the degraded
     fiber's class forced covered, new tunnels reduce the optimal loss. *)
  let topo = Topology.b4 () in
  let traffic = Traffic.generate topo in
  let ts = Tunnels.build topo traffic.Traffic.pairs in
  let nf = Topology.num_fibers topo in
  let demands = Traffic.demand traffic ~scale:4.0 ~epoch:12 in
  (* Degradation on a heavily-used fiber. *)
  let fiber = 3 in
  let probs = Array.init nf (fun i -> if i = fiber then 0.4 else 0.003) in
  let phi_of ts =
    (Te.solve ~second_phase:false (Te.make_problem ~ts ~demands ~probs ~beta:0.999 ())).Te.phi
  in
  let base = phi_of ts in
  let merged = Tunnel_update.merged (Tunnel_update.react ts ~degraded_fiber:fiber ()) in
  let with_new = phi_of merged in
  Alcotest.(check bool)
    (Printf.sprintf "phi with new tunnels %.4f <= base %.4f" with_new base)
    true (with_new <= base +. 1e-9)

let test_te_order2_classes () =
  (* Order-2 scenario sets produce a finer class partition that still
     partitions the scenario space. *)
  let topo = fig2_topology () in
  let ts = Tunnels.build ~per_flow:2 topo [ (0, 1); (0, 2) ] in
  let p1 = Te.make_problem ~ts ~demands:[| 5.0; 5.0 |] ~probs:[| 0.02; 0.03; 0.01 |] ~beta:0.9 () in
  let p2 =
    Te.make_problem ~ts ~demands:[| 5.0; 5.0 |] ~probs:[| 0.02; 0.03; 0.01 |] ~max_order:2
      ~beta:0.9 ()
  in
  Alcotest.(check int) "order-1 scenarios" 4 (Array.length p1.Te.scenarios.Scenario.scenarios);
  Alcotest.(check int) "order-2 scenarios" 7 (Array.length p2.Te.scenarios.Scenario.scenarios);
  let classes = Te.classes_of p2 in
  Array.iter
    (fun cls ->
      let members = Array.fold_left (fun a c -> a + List.length c.Scenario.Classes.members) 0 cls in
      Alcotest.(check int) "partition" 7 members;
      let mass = Array.fold_left (fun a c -> a +. c.Scenario.Classes.prob) 0.0 cls in
      check_close 1e-9 "mass 1 (normalized)" 1.0 mass)
    classes;
  (* Order-2 protection can only increase the optimum loss. *)
  let s1 = Te.solve ~second_phase:false p1 and s2 = Te.solve ~second_phase:false p2 in
  Alcotest.(check bool) "phi(order2) >= phi(order1) - eps" true (s2.Te.phi >= s1.Te.phi -. 1e-6)

let prop_scenario_probs_match_helper =
  QCheck.Test.make ~name:"enumerated probabilities match closed form" ~count:50
    QCheck.(list_of_size (Gen.int_range 1 6) (float_range 0.0 0.4))
    (fun ps ->
      let probs = Array.of_list ps in
      let set = Scenario.enumerate ~probs ~max_order:2 () in
      Array.for_all
        (fun (s : Scenario.t) ->
          Float.abs (s.Scenario.prob -. Scenario.probability ~probs s.Scenario.fibers)
          < 1e-12)
        set.Scenario.scenarios)

let prop_heuristic_bounds_optimum =
  QCheck.Test.make ~name:"heuristic phi sandwiched by exact optimum and all-covered"
    ~count:12
    QCheck.(triple (float_range 5.0 20.0) (float_range 5.0 20.0) (float_range 0.85 0.97))
    (fun (d1, d2, beta) ->
      let topo = fig2_topology () in
      let ts = Tunnels.build ~per_flow:2 topo [ (0, 1); (0, 2) ] in
      let p = Te.make_problem ~ts ~demands:[| d1; d2 |] ~probs:[| 0.03; 0.04; 0.02 |] ~beta () in
      let h = (Te.solve ~second_phase:false p).Te.phi in
      let exact = (Te.solve_mip p).Te.phi in
      (* Validity: the heuristic never reports better than the optimum;
         quality: on these instances it should be within 0.15 of it. *)
      h >= exact -. 1e-6 && h <= exact +. 0.15)

(* ------------------------------------------------------------------ *)
(* Availability                                                          *)
(* ------------------------------------------------------------------ *)

let test_availability_states_normalized () =
  let env = Lazy.force b4_env in
  let states = Availability.Internal.degradation_states env in
  let sum = Array.fold_left (fun a (_, p) -> a +. p) 0.0 states in
  check_close 1e-9 "states sum to 1" 1.0 sum;
  let outcomes = Availability.Internal.cut_outcomes env ~degraded:(Some 2) in
  let sum2 = Array.fold_left (fun a (_, p) -> a +. p) 0.0 outcomes in
  check_close 1e-9 "outcomes sum to 1" 1.0 sum2

let test_availability_degraded_fiber_dominates () =
  (* In a degraded state the degraded fiber's cut outcome carries roughly
     the hazard mass (~0.4), orders of magnitude above the others. *)
  let env = Lazy.force b4_env in
  let n = 2 in
  let outcomes = Availability.Internal.cut_outcomes env ~degraded:(Some n) in
  let p_n =
    Array.to_list outcomes
    |> List.find_map (fun (c, p) -> if c = Some n then Some p else None)
    |> Option.get
  in
  (* Its conditional cut probability is the event's hazard — far above
     every unpredictable-channel outcome. *)
  Array.iter
    (fun (c, p) ->
      match c with
      | Some m when m <> n ->
        Alcotest.(check bool) "degraded fiber dominates others" true (p_n > p)
      | _ -> ())
    outcomes;
  Alcotest.(check bool)
    (Printf.sprintf "p_n %.3f tracks hazard %.3f" p_n env.Availability.true_hazard.(n))
    true
    (p_n > 0.5 *. env.Availability.true_hazard.(n))

let test_availability_max_served_bounds () =
  let env = Lazy.force b4_env in
  let demands = Traffic.demand env.Availability.traffic ~scale:0.5 ~epoch:12 in
  let served = Availability.Internal.max_served env ~demands ~cuts:[] in
  Array.iter (fun s -> check_close 1e-6 "all served at low scale" 1.0 s) served;
  let served_cut = Availability.Internal.max_served env ~demands ~cuts:[ 0 ] in
  Array.iter
    (fun s -> Alcotest.(check bool) "bounded" true (s >= -1e-9 && s <= 1.0 +. 1e-9))
    served_cut

let test_availability_in_unit_range () =
  let env = Lazy.force b4_env in
  List.iter
    (fun scheme ->
      let a = Availability.availability env scheme ~scale:2.0 in
      Alcotest.(check bool)
        (Printf.sprintf "%s availability %.4f in [0,1]" (Schemes.name scheme) a)
        true (a >= 0.0 && a <= 1.0))
    [ Schemes.Ecmp; Schemes.Ffc 1; Schemes.Teavar; Schemes.Flexile ]

let test_availability_paper_ordering () =
  (* The Fig. 13 story at a capacity-stressed scale: Oracle >= PreTE >
     TeaVar > ECMP-ish; everything in [0, 1]. *)
  let env = Lazy.force b4_env in
  let topo = env.Availability.ts.Tunnels.topo in
  let predictor = predictor_true topo in
  let scale = 3.0 in
  let a_teavar = Availability.availability env Schemes.Teavar ~scale in
  let a_prete = Availability.availability env (Schemes.prete_default ~predictor ()) ~scale in
  let a_oracle = Availability.availability env Schemes.Oracle ~scale in
  let a_ecmp = Availability.availability env Schemes.Ecmp ~scale in
  Alcotest.(check bool)
    (Printf.sprintf "PreTE %.4f > TeaVar %.4f" a_prete a_teavar)
    true (a_prete > a_teavar);
  Alcotest.(check bool)
    (Printf.sprintf "Oracle %.4f >= PreTE %.4f" a_oracle a_prete)
    true (a_oracle >= a_prete -. 1e-6);
  Alcotest.(check bool)
    (Printf.sprintf "TeaVar %.4f > ECMP %.4f" a_teavar a_ecmp)
    true (a_teavar > a_ecmp)

let test_availability_smore () =
  (* SMORE (failure-oblivious, optimized split) sits between ECMP and
     the failure-aware schemes, and meets all demand at low scale. *)
  let env = Lazy.force b4_env in
  let a_smore_low = Availability.availability env Schemes.Smore ~scale:1.0 in
  (* Failure-oblivious: even at low scale it eats cut losses, but the
     no-cut scenario (most of the mass) is fully served. *)
  Alcotest.(check bool)
    (Printf.sprintf "low-scale availability %.4f > 0.97" a_smore_low)
    true (a_smore_low > 0.97);
  let scale = 3.0 in
  let a_smore = Availability.availability env Schemes.Smore ~scale in
  let a_ecmp = Availability.availability env Schemes.Ecmp ~scale in
  Alcotest.(check bool)
    (Printf.sprintf "SMORE %.4f >= ECMP %.4f" a_smore a_ecmp)
    true (a_smore >= a_ecmp -. 1e-6)

let test_availability_prete_beats_naive () =
  (* Fig. 16a: creating new tunnels helps at a stressed scale. *)
  let env = Lazy.force b4_env in
  let topo = env.Availability.ts.Tunnels.topo in
  let predictor = predictor_true topo in
  let scale = 3.0 in
  let a_full = Availability.availability env (Schemes.prete_default ~predictor ()) ~scale in
  let a_naive = Availability.availability env (Schemes.prete_naive ~predictor ()) ~scale in
  Alcotest.(check bool)
    (Printf.sprintf "PreTE %.5f >= PreTE-naive %.5f" a_full a_naive)
    true (a_full >= a_naive -. 1e-9)

(* PreTE's rerouted tunnel set is memoized per fiber in the env: a
   repeat plan reuses the stored set, a different ratio rebuilds it, and
   either way the plan is the one a fresh env computes. *)
let test_rerouted_memo () =
  let topo = Topology.b4 () in
  let predictor = predictor_true topo in
  let env = Availability.make_env topo in
  let demands =
    Traffic.demand env.Availability.traffic ~scale:2.0 ~epoch:env.Availability.epoch
  in
  let plan env ratio =
    Availability.Internal.plan_alloc env
      (Schemes.Prete { Schemes.predictor; ratio; update_tunnels = true })
      ~demands ~degraded:(Some 3)
  in
  let bits p = Array.map Int64.bits_of_float p.Availability.p_alloc in
  let first = plan env 1.0 in
  let again = plan env 1.0 in
  Alcotest.(check bool) "repeat shares the tunnel set" true
    (first.Availability.p_ts == again.Availability.p_ts);
  let half = plan env 0.5 in
  Alcotest.(check bool) "new ratio rebuilds" false
    (half.Availability.p_ts == first.Availability.p_ts);
  List.iter
    (fun (name, ratio, p) ->
      let fresh = plan (Availability.make_env topo) ratio in
      Alcotest.(check bool) (name ^ ": same tunnels as a fresh env") true
        (p.Availability.p_ts.Tunnels.tunnels = fresh.Availability.p_ts.Tunnels.tunnels
        && p.Availability.p_ts.Tunnels.of_flow
           = fresh.Availability.p_ts.Tunnels.of_flow);
      Alcotest.(check (array int64)) (name ^ ": same allocation bits")
        (bits fresh) (bits p))
    [ ("ratio 1", 1.0, again); ("ratio 0.5", 0.5, half) ]

(* ------------------------------------------------------------------ *)
(* Plan memo                                                            *)
(* ------------------------------------------------------------------ *)

let alloc_bits p = Array.map Int64.bits_of_float p.Availability.p_alloc

(* A solve that never reads or writes a memo. *)
let fresh_plan env scheme ~demands ~degraded =
  fst (Availability.Internal.plan_alloc_warm env scheme ~demands ~degraded)

let check_same_plan what ~expected p =
  Alcotest.(check bool) (what ^ ": same tunnels") true
    (p.Availability.p_ts.Tunnels.tunnels = expected.Availability.p_ts.Tunnels.tunnels
    && p.Availability.p_ts.Tunnels.of_flow = expected.Availability.p_ts.Tunnels.of_flow);
  Alcotest.(check (array int64)) (what ^ ": same allocation bits")
    (alloc_bits expected) (alloc_bits p)

(* Every degradation state, under each predictor and demand vector: the
   first call stores, the second is a hit that returns the stored plan,
   and both equal a solve on a fresh env that bypasses the memo.  Two
   predictors give a state the same tunnel set and demands but different
   probabilities, and two demand classes give it different demands, so a
   key missing either collides here. *)
let check_memo name topo env ~predictors demand_sets =
  let fresh =
    Availability.make_env ~traffic:env.Availability.traffic
      ~tunnels:env.Availability.ts topo
  in
  List.iter
    (fun (pname, predictor) ->
      let scheme = Schemes.prete_default ~predictor () in
      List.iteri
        (fun c demands ->
          Array.iter
            (fun (degraded, _) ->
              let what =
                Printf.sprintf "%s, %s, demands %d, state %s" name pname c
                  (match degraded with None -> "none" | Some n -> string_of_int n)
              in
              let first = Availability.Internal.plan_alloc env scheme ~demands ~degraded in
              let hit = Availability.Internal.plan_alloc env scheme ~demands ~degraded in
              Alcotest.(check bool) (what ^ ": hit returns the stored plan") true
                (hit == first);
              check_same_plan what
                ~expected:(fresh_plan fresh scheme ~demands ~degraded) hit)
            (Availability.Internal.degradation_states env))
        demand_sets)
    predictors

let test_memo_matches_fresh_solves () =
  let true_hazard topo = ("true hazard", predictor_true topo) in
  List.iter
    (fun (name, flat) ->
      let topo = Topology.by_name name in
      let env = Availability.make_env topo in
      check_memo name topo env
        ~predictors:(true_hazard topo :: (if flat then [ ("flat 0.3", fun _ -> 0.3) ] else []))
        [ Traffic.demand env.Availability.traffic ~scale:1.0 ~epoch:env.Availability.epoch ])
    [ ("TWAN", true); ("grid3", false) ];
  (* A traffic model with two demand classes, planned over as the
     runtime plans over it. *)
  let topo = Topology.by_name "TWAN" in
  let m = Traffic_model.by_name "flash" topo in
  let env =
    Availability.make_env ~traffic:(Traffic_model.to_traffic m)
      ~tunnels:(Tunnels.build topo m.Traffic_model.tm_pairs) topo
  in
  check_memo "TWAN flash" topo env ~predictors:[ true_hazard topo ]
    (Array.to_list m.Traffic_model.tm_classes)

let memo_case name =
  let topo = Topology.by_name name in
  let env = Availability.make_env topo in
  let scheme = Schemes.prete_default ~predictor:(predictor_true topo) () in
  let demands scale =
    Traffic.demand env.Availability.traffic ~scale ~epoch:env.Availability.epoch
  in
  (env, scheme, demands)

(* Deadlines grow by 1.25x from 0.1 ms until a plan comes back whole:
   the ones in between time out or return a degraded incumbent (4-16 ms
   on B4 at scale 3 on a 2-vCPU x86 host), and none of them is stored. *)
let test_memo_skips_deadline_plans () =
  let env, scheme, demands = memo_case "B4" in
  let demands = demands 3.0 and degraded = Some 0 in
  let rec sweep d seen =
    match
      Availability.Internal.plan_alloc
        ~deadline:(Prete_util.Clock.deadline_after d) env scheme ~demands ~degraded
    with
    | exception Prete_lp.Simplex.Timeout -> sweep (d *. 1.25) seen
    | p when p.Availability.p_degraded -> sweep (d *. 1.25) (seen + 1)
    | _ -> seen
  in
  let seen = sweep 1e-4 0 in
  Alcotest.(check bool) "some deadline returned a degraded plan" true (seen > 0);
  Alcotest.(check int) "no deadline plan stored" 0 (Availability.Internal.memo_plans env);
  let p = Availability.Internal.plan_alloc env scheme ~demands ~degraded in
  Alcotest.(check bool) "a cold call solves afresh" false p.Availability.p_degraded;
  Alcotest.(check int) "its plan is stored" 1 (Availability.Internal.memo_plans env);
  check_same_plan "after the deadline calls"
    ~expected:(fresh_plan env scheme ~demands ~degraded) p

let test_memo_at_bound () =
  let env, scheme, demands = memo_case "TWAN" in
  let cap = Availability.Internal.memo_capacity in
  let nf = Array.length env.Availability.degr_events in
  let key k = (demands (1.0 +. (0.01 *. float_of_int (k / nf))), Some (k mod nf)) in
  let plan k =
    let demands, degraded = key k in
    Availability.Internal.plan_alloc env scheme ~demands ~degraded
  in
  let held = Array.init (cap + 10) plan in
  Alcotest.(check int) "memo full" cap (Availability.Internal.memo_plans env);
  Alcotest.(check bool) "newest still a hit" true (plan (cap + 9) == held.(cap + 9));
  List.iter
    (fun k ->
      let what = Printf.sprintf "key %d of %d" k (cap + 10) in
      let demands, degraded = key k in
      let expected = fresh_plan env scheme ~demands ~degraded in
      check_same_plan what ~expected (plan k);
      check_same_plan (what ^ " (first answer)") ~expected held.(k))
    [ 0; 9; 10; cap; cap + 9 ];
  Alcotest.(check int) "memo stays at its bound" cap (Availability.Internal.memo_plans env)

let test_availability_decreasing_in_scale () =
  let env = Lazy.force b4_env in
  let curve =
    Availability.availability_curve env Schemes.Teavar ~scales:[| 1.0; 2.5; 4.0 |]
  in
  let a1 = snd curve.(0) and a2 = snd curve.(1) and a3 = snd curve.(2) in
  Alcotest.(check bool) "non-increasing (tolerance)" true
    (a1 >= a2 -. 0.01 && a2 >= a3 -. 0.01)

let test_max_scale_at () =
  let curve = [| (1.0, 0.9999); (2.0, 0.995); (3.0, 0.985); (4.0, 0.97) |] in
  let s = Availability.max_scale_at curve ~target:0.99 in
  (* Crossing between 2.0 and 3.0: 0.995 -> 0.985, target 0.99 at 2.5. *)
  check_close 1e-9 "interpolated" 2.5 s;
  check_close 1e-9 "never meets" 0.0
    (Availability.max_scale_at curve ~target:0.99999);
  check_close 1e-9 "always meets" 4.0 (Availability.max_scale_at curve ~target:0.9)

let test_nines () =
  check_close 1e-9 "2 nines" 2.0 (Availability.nines 0.99);
  check_close 1e-9 "3 nines" 3.0 (Availability.nines 0.999);
  check_close 1e-9 "cap" 6.0 (Availability.nines 1.0)

(* ------------------------------------------------------------------ *)
(* Controller                                                           *)
(* ------------------------------------------------------------------ *)

let test_controller_timeline () =
  let (), r =
    Controller.run
      ~infer:(fun () -> ())
      ~regen:(fun () -> ())
      ~te:(fun () -> ())
      ~n_new_tunnels:20 ()
  in
  Alcotest.(check int) "five stages" 5 (List.length r.Controller.timeline);
  (* Stages are contiguous. *)
  let rec contiguous = function
    | a :: (b : Controller.timing) :: rest ->
      Float.abs (a.Controller.start_s +. a.Controller.duration_s -. b.Controller.start_s)
      < 1e-9
      && contiguous (b :: rest)
    | _ -> true
  in
  Alcotest.(check bool) "contiguous" true (contiguous r.Controller.timeline);
  (* 20 tunnels at 250 ms each = 5 s (Fig. 11b). *)
  let update =
    List.find (fun t -> t.Controller.stage = Controller.Tunnel_update) r.Controller.timeline
  in
  check_close 1e-9 "5 s for 20 tunnels" 5.0 update.Controller.duration_s

let test_controller_linear_updates () =
  check_close 1e-9 "zero" 0.0 (Controller.tunnel_update_time 0);
  check_close 1e-9 "linear" (2.0 *. Controller.tunnel_update_time 10)
    (Controller.tunnel_update_time 20)

let test_controller_budget () =
  let (), r =
    Controller.run
      ~infer:(fun () -> ())
      ~regen:(fun () -> ())
      ~te:(fun () -> ())
      ~n_new_tunnels:4 ()
  in
  Alcotest.(check bool) "fits in 60 s gap" true (Controller.within_budget r ~gap_to_cut_s:60.0);
  Alcotest.(check bool) "misses 0.1 s gap" false (Controller.within_budget r ~gap_to_cut_s:0.1)

(* ------------------------------------------------------------------ *)
(* Switchsim                                                            *)
(* ------------------------------------------------------------------ *)

let test_switchsim_linear_serialized () =
  (* Fig. 11b: serialized installation is linear, ~0.25 s per tunnel. *)
  let ts = Lazy.force b4_tunnels in
  let curve = Switchsim.fig11b_curve ts ~counts:[ 10; 20; 40 ] in
  (match curve with
  | [ (_, t10); (_, t20); (_, t40) ] ->
    Alcotest.(check bool)
      (Printf.sprintf "roughly linear: %.2f %.2f %.2f" t10 t20 t40)
      true
      (t20 > 1.6 *. t10 && t20 < 2.4 *. t10 && t40 > 1.6 *. t20 && t40 < 2.4 *. t20);
    Alcotest.(check bool)
      (Printf.sprintf "20 tunnels ~5 s (got %.2f)" t20)
      true
      (t20 > 3.0 && t20 < 8.0)
  | _ -> Alcotest.fail "expected 3 samples")

let test_switchsim_batching_speedup () =
  (* §5: batching a dozen tunnels at a time cuts the total time. *)
  let ts = Lazy.force b4_tunnels in
  let tunnels = List.filteri (fun i _ -> i < 48) (Array.to_list ts.Tunnels.tunnels) in
  let serial = Switchsim.install ts tunnels in
  let batched = Switchsim.install ~batch:12 ts tunnels in
  Alcotest.(check bool)
    (Printf.sprintf "batched %.2f s at least 3x faster than %.2f s"
       batched.Switchsim.total_s serial.Switchsim.total_s)
    true
    (batched.Switchsim.total_s *. 3.0 < serial.Switchsim.total_s);
  Alcotest.(check int) "same session count" serial.Switchsim.sessions
    batched.Switchsim.sessions

let test_switchsim_sessions_count_routers () =
  let ts = Lazy.force b4_tunnels in
  let tn = ts.Tunnels.tunnels.(0) in
  let o = Switchsim.install ts [ tn ] in
  Alcotest.(check int) "one session per router on the path"
    (List.length tn.Tunnels.links + 1)
    o.Switchsim.sessions;
  Alcotest.(check int) "one completion" 1 (Array.length o.Switchsim.per_tunnel_s)

let test_switchsim_deterministic_and_valid () =
  let ts = Lazy.force b4_tunnels in
  let tunnels = List.filteri (fun i _ -> i < 10) (Array.to_list ts.Tunnels.tunnels) in
  let a = Switchsim.install ts tunnels and b = Switchsim.install ts tunnels in
  check_close 1e-12 "deterministic" a.Switchsim.total_s b.Switchsim.total_s;
  Array.iter
    (fun t ->
      Alcotest.(check bool) "completion within total" true
        (t > 0.0 && t <= a.Switchsim.total_s +. 1e-9))
    a.Switchsim.per_tunnel_s;
  Alcotest.check_raises "bad batch" (Invalid_argument "Switchsim.install: batch must be positive")
    (fun () -> ignore (Switchsim.install ~batch:0 ts tunnels))

(* ------------------------------------------------------------------ *)
(* Uncertainty                                                          *)
(* ------------------------------------------------------------------ *)

let test_uncertainty_fig19_shape () =
  (* Capacity uncertainty moves affected tunnels much more than workload
     uncertainty moves anything. *)
  let env = Lazy.force b4_env in
  let w = Uncertainty.workload_variation env ~scale:1.5 ~jitter:0.05 in
  let c = Uncertainty.capacity_variation env ~scale:1.5 in
  Alcotest.(check bool)
    (Printf.sprintf "capacity affected %.3f > workload affected %.3f"
       c.Uncertainty.affected_mean w.Uncertainty.affected_mean)
    true
    (c.Uncertainty.affected_mean > w.Uncertainty.affected_mean);
  Alcotest.(check bool) "capacity: affected >> unaffected" true
    (c.Uncertainty.affected_mean > c.Uncertainty.unaffected_mean)

let test_uncertainty_fig17_shape () =
  let env = Lazy.force b4_env in
  let topo = env.Availability.ts.Tunnels.topo in
  let predictor = predictor_true topo in
  let pts = Uncertainty.fig17 env ~predictor ~scales:[| 3.0 |] in
  Alcotest.(check int) "4 points" 4 (List.length pts);
  let get scheme dp =
    (List.find
       (fun p -> p.Uncertainty.scheme = scheme && p.Uncertainty.demand_prediction = dp)
       pts)
      .Uncertainty.availability
  in
  (* Failure prediction dominates demand prediction when loaded. *)
  Alcotest.(check bool) "PreTE > TeaVar*" true (get "PreTE" false > get "TeaVar" true);
  Alcotest.(check bool) "PreTE* >= PreTE - eps" true
    (get "PreTE" true >= get "PreTE" false -. 0.002)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "prete_core"
    [
      ( "scenario",
        [
          Alcotest.test_case "single order" `Quick test_scenario_single_order;
          Alcotest.test_case "order 2" `Quick test_scenario_order2;
          Alcotest.test_case "cutoff" `Quick test_scenario_cutoff;
          Alcotest.test_case "normalize" `Quick test_scenario_normalize;
          Alcotest.test_case "probability" `Quick test_scenario_probability;
          Alcotest.test_case "invalid" `Quick test_scenario_invalid;
          Alcotest.test_case "classes partition" `Quick test_scenario_classes;
        ] );
      ( "calibrate",
        [
          Alcotest.test_case "Eqn 1" `Quick test_calibrate_eqn1;
          Alcotest.test_case "static and oracle" `Quick test_calibrate_static_oracle;
          Alcotest.test_case "clamps" `Quick test_calibrate_clamps;
        ] );
      ( "algorithm1",
        [
          Alcotest.test_case "disjoint from degraded fiber" `Quick test_algorithm1_disjoint_from_degraded;
          Alcotest.test_case "only affected flows" `Quick test_algorithm1_only_affected_flows;
          Alcotest.test_case "ratio scales count" `Quick test_algorithm1_ratio_scales;
          Alcotest.test_case "merged consistent" `Quick test_algorithm1_merged_consistent;
          Alcotest.test_case "no duplicates" `Quick test_algorithm1_no_duplicates;
          Alcotest.test_case "output pinned on three topologies" `Quick test_algorithm1_pins;
        ] );
      ( "te",
        [
          Alcotest.test_case "Fig 2 feasible" `Quick test_te_fig2_feasible;
          Alcotest.test_case "phi > 0 when scarce" `Quick test_te_phi_positive_when_scarce;
          Alcotest.test_case "solution feasible" `Quick test_te_solution_feasible;
          Alcotest.test_case "heuristic = MIP" `Quick test_te_heuristic_matches_mip;
          Alcotest.test_case "Benders = MIP" `Quick test_te_benders_matches_mip;
          Alcotest.test_case "Benders on B4" `Slow test_te_benders_converges_b4;
          Alcotest.test_case "monotone in beta" `Quick test_te_monotone_in_beta;
          Alcotest.test_case "validation" `Quick test_te_make_problem_validation;
          Alcotest.test_case "beta above truncated mass" `Quick
            test_te_beta_above_truncated_mass;
          Alcotest.test_case "admission caps" `Quick test_te_admission_caps;
          Alcotest.test_case "admission saturates" `Quick test_te_admission_saturates_when_abundant;
          Alcotest.test_case "admission skip unprotectable" `Quick test_te_admission_skip_unprotectable;
          Alcotest.test_case "new tunnels reduce loss" `Slow test_te_new_tunnels_reduce_loss;
          Alcotest.test_case "order-2 classes" `Quick test_te_order2_classes;
        ] );
      ( "availability",
        [
          Alcotest.test_case "states normalized" `Slow test_availability_states_normalized;
          Alcotest.test_case "degraded fiber dominates" `Slow test_availability_degraded_fiber_dominates;
          Alcotest.test_case "max served bounds" `Slow test_availability_max_served_bounds;
          Alcotest.test_case "unit range" `Slow test_availability_in_unit_range;
          Alcotest.test_case "paper ordering (Fig 13)" `Slow test_availability_paper_ordering;
          Alcotest.test_case "SMORE between ECMP and aware" `Slow test_availability_smore;
          Alcotest.test_case "PreTE >= naive (Fig 16a)" `Slow test_availability_prete_beats_naive;
          Alcotest.test_case "decreasing in scale" `Slow test_availability_decreasing_in_scale;
          Alcotest.test_case "max_scale_at" `Quick test_max_scale_at;
          Alcotest.test_case "nines" `Quick test_nines;
          Alcotest.test_case "rerouted tunnel memo" `Quick test_rerouted_memo;
        ] );
      ( "te.props",
        List.map
          (QCheck_alcotest.to_alcotest ~long:false)
          [ prop_scenario_probs_match_helper; prop_heuristic_bounds_optimum ] );
      ( "controller",
        [
          Alcotest.test_case "timeline (Fig 11a)" `Quick test_controller_timeline;
          Alcotest.test_case "linear updates (Fig 11b)" `Quick test_controller_linear_updates;
          Alcotest.test_case "budget check" `Quick test_controller_budget;
        ] );
      ( "switchsim",
        [
          Alcotest.test_case "linear serialized (Fig 11b)" `Quick test_switchsim_linear_serialized;
          Alcotest.test_case "batching speedup" `Quick test_switchsim_batching_speedup;
          Alcotest.test_case "sessions per router" `Quick test_switchsim_sessions_count_routers;
          Alcotest.test_case "deterministic + valid" `Quick test_switchsim_deterministic_and_valid;
        ] );
      ( "uncertainty",
        [
          Alcotest.test_case "Fig 19 shape" `Slow test_uncertainty_fig19_shape;
          Alcotest.test_case "Fig 17 shape" `Slow test_uncertainty_fig17_shape;
        ] );
      ( "plan memo",
        [
          Alcotest.test_case "hits equal fresh solves" `Slow test_memo_matches_fresh_solves;
          Alcotest.test_case "deadline plans never stored" `Quick
            test_memo_skips_deadline_plans;
          Alcotest.test_case "identical plans at its bound" `Quick test_memo_at_bound;
        ] );
    ]
