open Prete_net

type t = {
  base : Tunnels.t;
  degraded_fiber : int;
  new_tunnels : Tunnels.tunnel array;
  new_of_flow : int list array;
}

let react ?(ratio = 1.0) (ts : Tunnels.t) ~degraded_fiber () =
  if ratio < 0.0 then invalid_arg "Tunnel_update.react: negative ratio";
  if degraded_fiber < 0 || degraded_fiber >= Topology.num_fibers ts.Tunnels.topo then
    invalid_arg "Tunnel_update.react: fiber out of range";
  let topo = ts.Tunnels.topo in
  let next_id = ref (Array.length ts.Tunnels.tunnels) in
  let new_tunnels = ref [] in
  let new_of_flow = Array.make (Array.length ts.Tunnels.flows) [] in
  (* Step 1: delete the degraded link(s) — every IP link riding the
     fiber.  Membership and the residual-graph weight of each link are
     computed once per call. *)
  let nl = Topology.num_links topo in
  let on_fiber =
    Array.init nl (fun lid -> List.mem degraded_fiber (Topology.link topo lid).Topology.fibers)
  in
  let weights =
    Array.init nl (fun lid ->
        if on_fiber.(lid) then 1e9
        else
          List.fold_left
            (fun acc fb -> acc +. (Topology.fiber topo fb).Topology.length_km)
            50.0 (Topology.link topo lid).Topology.fibers)
  in
  let avoid_weight (l : Topology.link) = weights.(l.Topology.lid) in
  let uses_degraded path = List.exists (fun lid -> on_fiber.(lid)) path in
  Array.iter
    (fun (f : Tunnels.flow) ->
      let flow_id = f.Tunnels.flow_id in
      let existing = Tunnels.tunnels_of_flow ts flow_id in
      (* Step 2: Λ = number of tunnels traversing the degraded fiber. *)
      let lambda =
        List.length
          (List.filter (fun (tn : Tunnels.tunnel) -> uses_degraded tn.Tunnels.links) existing)
      in
      if lambda > 0 && ratio > 0.0 then begin
        let want = int_of_float (Float.ceil (ratio *. float_of_int lambda)) in
        let existing_paths = List.map (fun tn -> tn.Tunnels.links) existing in
        (* Candidate paths in G' = G minus the degraded fiber: fiber-
           disjoint first, then k-shortest, skipping duplicates. *)
        let candidates =
          Routing.fiber_disjoint topo ~weight:avoid_weight ~k:(want + 2)
            ~src:f.Tunnels.src ~dst:f.Tunnels.dst ()
          @ Routing.k_shortest topo ~weight:avoid_weight ~k:(want + 4)
              ~src:f.Tunnels.src ~dst:f.Tunnels.dst ()
        in
        let fresh =
          List.filter
            (fun p ->
              (not (List.mem p existing_paths)) && not (uses_degraded p))
            candidates
        in
        let dedup =
          let seen = ref [] in
          List.filter
            (fun p ->
              if List.mem p !seen then false
              else begin
                seen := p :: !seen;
                true
              end)
            fresh
        in
        List.iteri
          (fun i p ->
            if i < want then begin
              let id = !next_id in
              incr next_id;
              new_tunnels :=
                { Tunnels.tunnel_id = id; Tunnels.owner = flow_id; Tunnels.links = p }
                :: !new_tunnels;
              new_of_flow.(flow_id) <- id :: new_of_flow.(flow_id)
            end)
          dedup
      end)
    ts.Tunnels.flows;
  Array.iteri (fun i l -> new_of_flow.(i) <- List.rev l) new_of_flow;
  {
    base = ts;
    degraded_fiber;
    new_tunnels = Array.of_list (List.rev !new_tunnels);
    new_of_flow;
  }

let merged t =
  let base = t.base in
  {
    base with
    Tunnels.tunnels = Array.append base.Tunnels.tunnels t.new_tunnels;
    (* Flows without new tunnels share the base list: a plan keeps this
       tunnel set alive, so copying every list would pin a full copy of
       [of_flow] per stored plan. *)
    Tunnels.of_flow =
      Array.mapi
        (fun i l -> match t.new_of_flow.(i) with [] -> l | extra -> l @ extra)
        base.Tunnels.of_flow;
  }

let num_new t = Array.length t.new_tunnels

let is_new t tid = tid >= Array.length t.base.Tunnels.tunnels
