type entry = {
  e_tunnel : int;
  e_detour : int;
  e_links : Routing.path;
  e_bottleneck : float;
}

type per_fiber = {
  pf_fiber : int;
  pf_ts : Tunnels.t;
  pf_entries : entry list;
  pf_flows : int list;
}

(* [users] maps each link used by some detour path of the fiber to the
   base tunnels crossing it — precomputed so a splice reads the residual
   headroom of exactly the links it may load, instead of recomputing a
   full link-load vector per activation. *)
type table = { tb : per_fiber; tb_links : int array; tb_users : int list array }

type t = {
  base : Tunnels.t;
  tables : table option array;
  bypass_cache : (int * int * int * int list, Routing.path option) Hashtbl.t;
      (* (fiber, src, dst, tunnel path) -> memoized bypass search *)
}

let base t = t.base

(* Modeled activation latency: flow-table updates fan out from the
   failure-local switches, so the cost is a constant plus a per-affected-
   flow term — never a solve. *)
let detour_base_s = 0.010
let detour_per_flow_s = 0.002

(* The bypass for one tunnel: keep the healthy prefix and suffix, replace
   the span from the first to the last hop riding the failed fiber with a
   fiber-avoiding segment that revisits no retained node (so the spliced
   path stays loop-free).  When no such segment exists, fall back to a
   whole-path replacement avoiding the fiber. *)
let bypass (ts : Tunnels.t) fid (tn : Tunnels.tunnel) =
  let topo = ts.Tunnels.topo in
  let rides_fiber lid = List.mem fid (Topology.link topo lid).Topology.fibers in
  let links = Array.of_list tn.Tunnels.links in
  let nodes = Array.of_list (Routing.path_nodes topo tn.Tunnels.links) in
  let n = Array.length links in
  let first = ref (-1) and last = ref (-1) in
  Array.iteri
    (fun i lid ->
      if rides_fiber lid then begin
        if !first < 0 then first := i;
        last := i
      end)
    links;
  if !first < 0 then None (* does not traverse the fiber *)
  else begin
    let i = !first and j = !last in
    let enter = nodes.(i) and exit_ = nodes.(j + 1) in
    let prefix = Array.to_list (Array.sub links 0 i) in
    let suffix = Array.to_list (Array.sub links (j + 1) (n - j - 1)) in
    let retained =
      List.concat
        [
          Array.to_list (Array.sub nodes 0 i);
          Array.to_list (Array.sub nodes (j + 2) (Array.length nodes - j - 2));
        ]
    in
    let forbidden_nodes v = v <> enter && v <> exit_ && List.mem v retained in
    let f = ts.Tunnels.flows.(tn.Tunnels.owner) in
    let whole_replacement () =
      Routing.shortest_path topo ~forbidden_links:rides_fiber
        ~src:f.Tunnels.src ~dst:f.Tunnels.dst ()
    in
    match
      Routing.shortest_path topo ~forbidden_links:rides_fiber ~forbidden_nodes
        ~src:enter ~dst:exit_ ()
    with
    | Some seg ->
      let p = prefix @ seg @ suffix in
      if Routing.path_valid topo ~src:f.Tunnels.src ~dst:f.Tunnels.dst p then
        Some p
      else whole_replacement ()
    | None -> whole_replacement ()
  end

let bottleneck topo p =
  List.fold_left
    (fun b lid -> Float.min b (Topology.link topo lid).Topology.capacity)
    infinity p

(* Extend the base tunnel set with one detour tunnel per (tunnel, path)
   pair, ids appended after the base ids in pair order. *)
let extend (ts : Tunnels.t) pairs =
  let nt = Array.length ts.Tunnels.tunnels in
  let detour_tunnels =
    List.mapi
      (fun i ((tn : Tunnels.tunnel), p) ->
        { Tunnels.tunnel_id = nt + i; owner = tn.Tunnels.owner; links = p })
      pairs
  in
  let tunnels = Array.append ts.Tunnels.tunnels (Array.of_list detour_tunnels) in
  let of_flow = Array.copy ts.Tunnels.of_flow in
  List.iter
    (fun (tn : Tunnels.tunnel) ->
      of_flow.(tn.Tunnels.owner) <-
        of_flow.(tn.Tunnels.owner) @ [ tn.Tunnels.tunnel_id ])
    detour_tunnels;
  { Tunnels.topo = ts.Tunnels.topo; flows = ts.Tunnels.flows; tunnels; of_flow }

let build_table (ts : Tunnels.t) cache fid =
  let topo = ts.Tunnels.topo in
  let affected = Tunnels.tunnels_through_fiber ts fid in
  if affected = [] then None
  else begin
    let pairs =
      List.filter_map
        (fun (tn : Tunnels.tunnel) ->
          let f = ts.Tunnels.flows.(tn.Tunnels.owner) in
          let key = (fid, f.Tunnels.src, f.Tunnels.dst, tn.Tunnels.links) in
          let p =
            match Hashtbl.find_opt cache key with
            | Some p -> p
            | None ->
              let p = bypass ts fid tn in
              Hashtbl.add cache key p;
              p
          in
          Option.map (fun p -> (tn, p)) p)
        affected
    in
    (* Capacity headroom validation: a detour whose bottleneck is not
       strictly positive can never carry rerouted traffic. *)
    let pairs =
      List.filter (fun (_, p) -> bottleneck topo p > 0.0) pairs
    in
    if pairs = [] then None
    else begin
      let pf_ts = extend ts pairs in
      let nt = Array.length ts.Tunnels.tunnels in
      let entries =
        List.mapi
          (fun i ((tn : Tunnels.tunnel), p) ->
            {
              e_tunnel = tn.Tunnels.tunnel_id;
              e_detour = nt + i;
              e_links = p;
              e_bottleneck = bottleneck topo p;
            })
          pairs
      in
      let flows =
        List.sort_uniq compare
          (List.map (fun ((tn : Tunnels.tunnel), _) -> tn.Tunnels.owner) pairs)
      in
      (* Link -> crossing base tunnels, restricted to links a detour of
         this fiber can load. *)
      let used = Hashtbl.create 16 in
      List.iter
        (fun e -> List.iter (fun lid -> Hashtbl.replace used lid ()) e.e_links)
        entries;
      let links =
        Array.of_list
          (List.sort compare (Hashtbl.fold (fun l () acc -> l :: acc) used []))
      in
      let users = Array.make (Array.length links) [] in
      let slot = Hashtbl.create 16 in
      Array.iteri (fun i lid -> Hashtbl.replace slot lid i) links;
      Array.iter
        (fun (tn : Tunnels.tunnel) ->
          List.iter
            (fun lid ->
              match Hashtbl.find_opt slot lid with
              | Some i -> users.(i) <- tn.Tunnels.tunnel_id :: users.(i)
              | None -> ())
            tn.Tunnels.links)
        ts.Tunnels.tunnels;
      Some
        {
          tb = { pf_fiber = fid; pf_ts; pf_entries = entries; pf_flows = flows };
          tb_links = links;
          tb_users = users;
        }
    end
  end

let build_with ?(fibers = fun _ -> true) cache (ts : Tunnels.t) =
  let nf = Topology.num_fibers ts.Tunnels.topo in
  {
    base = ts;
    tables = Array.init nf (fun f -> if fibers f then build_table ts cache f else None);
    bypass_cache = cache;
  }

let build ?fibers ts = build_with ?fibers (Hashtbl.create 256) ts

let rebuild t ts = build_with t.bypass_cache ts

let for_fiber t fid =
  if fid < 0 || fid >= Array.length t.tables then None
  else Option.map (fun tb -> tb.tb) t.tables.(fid)

let affected_flows t fid =
  match for_fiber t fid with None -> [] | Some pf -> pf.pf_flows

let install_latency_s t ~fiber =
  detour_base_s
  +. (detour_per_flow_s *. float_of_int (List.length (affected_flows t fiber)))

let latency_bound_s t =
  detour_base_s
  +. detour_per_flow_s *. float_of_int (Array.length t.base.Tunnels.flows)

let splice ?(headroom = 0.9) t ~fiber ~alloc =
  if
    fiber < 0
    || fiber >= Array.length t.tables
    || Array.length alloc <> Array.length t.base.Tunnels.tunnels
  then None
  else
    match t.tables.(fiber) with
    | None -> None
    | Some { tb = pf; tb_links; tb_users } ->
      let topo = t.base.Tunnels.topo in
      (* Every tunnel with an entry is evacuated: during the cut it
         delivers nothing, so the patched plan zeroes it and its old-path
         load is excluded from the residuals below.  This is what lets a
         detour activate under a saturated optimal plan — the only spare
         capacity is the capacity the failure itself frees. *)
      let evac = Hashtbl.create (List.length pf.pf_entries) in
      List.iter (fun e -> Hashtbl.replace evac e.e_tunnel ()) pf.pf_entries;
      (* Residual headroom per detour link under the surviving part of
         the installed allocation: fill up to [headroom] of capacity,
         never beyond. *)
      let residual = Hashtbl.create (Array.length tb_links) in
      Array.iteri
        (fun i lid ->
          let load =
            List.fold_left
              (fun acc tid ->
                if Hashtbl.mem evac tid then acc else acc +. alloc.(tid))
              0.0 tb_users.(i)
          in
          Hashtbl.replace residual lid
            ((headroom *. (Topology.link topo lid).Topology.capacity) -. load))
        tb_links;
      let ndet = List.length pf.pf_entries in
      let patched = Array.append alloc (Array.make ndet 0.0) in
      let rerouted = ref 0 in
      let touched = Hashtbl.create 8 in
      let res lid = Option.value ~default:0.0 (Hashtbl.find_opt residual lid) in
      List.iter
        (fun e ->
          let want = patched.(e.e_tunnel) in
          (* The broken tunnel carries nothing during the cut either way;
             the plan says so explicitly. *)
          patched.(e.e_tunnel) <- 0.0;
          if want > 1e-9 then begin
            let room =
              List.fold_left (fun r lid -> Float.min r (res lid)) infinity
                e.e_links
            in
            let r = Float.min want (Float.max 0.0 room) in
            if r > 1e-9 then begin
              patched.(e.e_detour) <- r;
              List.iter
                (fun lid -> Hashtbl.replace residual lid (res lid -. r))
                e.e_links;
              incr rerouted;
              Hashtbl.replace touched
                pf.pf_ts.Tunnels.tunnels.(e.e_tunnel).Tunnels.owner ()
            end
          end)
        pf.pf_entries;
      if !rerouted = 0 then None
      else Some (pf.pf_ts, patched, !rerouted, Hashtbl.length touched)
