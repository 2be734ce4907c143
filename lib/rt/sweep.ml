open Prete_net
open Prete
module Pool = Prete_exec.Pool

(* ------------------------------------------------------------------ *)
(* Fault profiles                                                      *)
(* ------------------------------------------------------------------ *)

type profile = {
  pf_name : string;
  pf_impairments : Stream.impairments;
  pf_deadline_s : float option;
  pf_debounce_s : int;
}

let profiles =
  [
    {
      pf_name = "clean";
      pf_impairments = Stream.default_impairments;
      pf_deadline_s = None;
      pf_debounce_s = 30;
    };
    {
      pf_name = "lossy";
      pf_impairments =
        { Stream.gap_rate = 0.12; dup_rate = 0.04; reorder_rate = 0.25; max_delay = 6 };
      pf_deadline_s = Some 0.25;
      pf_debounce_s = 30;
    };
  ]

let profile_names = List.map (fun p -> p.pf_name) profiles

let profile_by_name name =
  match List.find_opt (fun p -> p.pf_name = name) profiles with
  | Some p -> p
  | None ->
    invalid_arg
      (Printf.sprintf "Sweep.profile_by_name: unknown fault profile %s (known: %s)"
         name
         (String.concat ", " profile_names))

let policies = [ "periodic"; "stream"; "stream+detour"; "instant" ]

(* ------------------------------------------------------------------ *)
(* Portfolio                                                           *)
(* ------------------------------------------------------------------ *)

type cell = {
  cl_topology : string;
  cl_traffic : string;
  cl_profile : string;
  cl_policy : string;
  cl_phi : float;
  cl_availability : float;
  cl_nines : float;
}

type combo = {
  cb_topology : string;
  cb_traffic : string;
  cb_profile : string;
  cb_flows : int;
  cb_degr_epochs : int;
  cb_cut_epochs : int;
  cb_detections : int;
  cb_reacted : int;
  cb_missed : int;
  cb_alarms : int;
  cb_reactions : int;
  cb_rungs : (string * int) list;
  cb_detour_activations : int;
  cb_detour_rescued : int;
  cb_detour_flows_patched : int;
  cb_solver_solves : int;
  cb_solver_warm_solves : int;
  cb_solver_pivots : int;
  cb_solver_cache_hits : int;
  cb_solver_cache_misses : int;
  cb_solver_ft_updates : int;
  cb_solver_bound_flips : int;
  cb_solver_lu_fill_nnz : int;
  cb_solver_presolve_rows : int;
  cb_solver_presolve_cols : int;
}

type portfolio = {
  pt_seed : int;
  pt_epochs : int;
  pt_scale : float;
  pt_topologies : string list;
  pt_traffic : string list;
  pt_profiles : string list;
  pt_policies : string list;
  pt_cells : cell list;
  pt_combos : combo list;
}

(* Standing-plan unmet fraction Φ of a combo: how much baseline demand
   the PreTE no-degradation plan leaves unserved before any failure. *)
let standing_phi (env : Availability.env) scheme ~demands =
  let plan = Availability.Internal.plan_alloc env scheme ~demands ~degraded:None in
  let ts = plan.Availability.p_ts in
  let alloc = plan.Availability.p_alloc in
  let served = ref 0.0 and total = ref 0.0 in
  Array.iter
    (fun (f : Tunnels.flow) ->
      let fid = f.Tunnels.flow_id in
      let d = demands.(fid) in
      if d > 0.0 then begin
        let got =
          List.fold_left (fun acc tid -> acc +. alloc.(tid)) 0.0
            ts.Tunnels.of_flow.(fid)
        in
        let got =
          match plan.Availability.p_admitted with
          | None -> got
          | Some b -> Float.min got b.(fid)
        in
        served := !served +. Float.min d got;
        total := !total +. d
      end)
    ts.Tunnels.flows;
  if !total <= 0.0 then 0.0 else 1.0 -. (!served /. !total)

let rung_names = [ "detour"; "primary"; "cached"; "equal-split" ]

let run ?pool ?(seed = 123) ?(epochs = 12) ?(scale = 1.0) ~topologies ~traffic
    ~profiles:wanted () =
  if topologies = [] || traffic = [] || wanted = [] then
    invalid_arg "Sweep.run: every matrix axis needs at least one entry";
  let profs = List.map profile_by_name wanted in
  let owns_pool = pool = None in
  let pool = match pool with Some p -> p | None -> Pool.create () in
  Fun.protect ~finally:(fun () -> if owns_pool then Pool.shutdown pool)
  @@ fun () ->
  let cells = ref [] and combos = ref [] in
  List.iter
    (fun topo_name ->
      let topo = Topology.by_name topo_name in
      List.iter
        (fun spec ->
          let tm = Traffic_model.by_name spec topo in
          (* Env and tunnels are shared across the combo's fault
             profiles: the scenario is the same network under the same
             workload, only the telemetry transport differs. *)
          let env =
            Availability.make_env
              ~traffic:(Traffic_model.to_traffic tm)
              ~tunnels:(Tunnels.build topo tm.Traffic_model.tm_pairs)
              topo
          in
          let nf = Topology.num_fibers topo in
          let phi_scheme =
            Schemes.prete_default
              ~predictor:(Prete_optics.Hazard.eval ~num_fibers:nf)
              ()
          in
          let standing =
            Array.map (fun d -> d *. scale) (Traffic_model.baseline tm)
          in
          let phi = standing_phi env phi_scheme ~demands:standing in
          List.iter
            (fun pf ->
              let cfg =
                {
                  Runtime.default_config with
                  Runtime.topology = topo_name;
                  traffic = spec;
                  epochs;
                  seed;
                  scale;
                  impairments = pf.pf_impairments;
                  deadline_s = pf.pf_deadline_s;
                  debounce_s = pf.pf_debounce_s;
                  detour = true;
                }
              in
              let r = Shard.run ~pool ~env cfg in
              let avail = function
                | "periodic" -> r.Shard.s_avail_periodic
                | "stream" -> r.Shard.s_avail_stream
                | "stream+detour" ->
                  Option.value ~default:r.Shard.s_avail_stream r.Shard.s_avail_detour
                | "instant" -> r.Shard.s_avail_instant
                | p -> invalid_arg ("Sweep.run: unknown policy " ^ p)
              in
              List.iter
                (fun policy ->
                  let a = avail policy in
                  cells :=
                    {
                      cl_topology = topo_name;
                      cl_traffic = spec;
                      cl_profile = pf.pf_name;
                      cl_policy = policy;
                      cl_phi = phi;
                      cl_availability = a;
                      cl_nines = Availability.nines a;
                    }
                    :: !cells)
                policies;
              let m = r.Shard.s_metrics in
              let s = r.Shard.s_solver in
              combos :=
                {
                  cb_topology = topo_name;
                  cb_traffic = spec;
                  cb_profile = pf.pf_name;
                  cb_flows = Traffic_model.num_flows tm;
                  cb_degr_epochs = r.Shard.s_degr_epochs;
                  cb_cut_epochs = r.Shard.s_cut_epochs;
                  cb_detections = List.length r.Shard.s_detections;
                  cb_reacted = r.Shard.s_reacted_in_time;
                  cb_missed = r.Shard.s_missed;
                  cb_alarms = Metrics.counter m "alarms";
                  cb_reactions = Metrics.counter m "reactions";
                  cb_rungs =
                    List.map (fun rg -> (rg, Metrics.counter m ("rung_" ^ rg))) rung_names;
                  cb_detour_activations = Metrics.counter m "detour_activations";
                  cb_detour_rescued = Metrics.counter m "detour_rescued_epochs";
                  cb_detour_flows_patched = Metrics.counter m "detour_flows_patched";
                  cb_solver_solves = s.Prete_lp.Solver_stats.solves;
                  cb_solver_warm_solves = s.Prete_lp.Solver_stats.warm_solves;
                  cb_solver_pivots = s.Prete_lp.Solver_stats.pivots;
                  cb_solver_cache_hits = s.Prete_lp.Solver_stats.cache_hits;
                  cb_solver_cache_misses = s.Prete_lp.Solver_stats.cache_misses;
                  cb_solver_ft_updates = s.Prete_lp.Solver_stats.ft_updates;
                  cb_solver_bound_flips = s.Prete_lp.Solver_stats.bound_flips;
                  cb_solver_lu_fill_nnz = s.Prete_lp.Solver_stats.lu_fill_nnz;
                  cb_solver_presolve_rows =
                    s.Prete_lp.Solver_stats.presolve_rows;
                  cb_solver_presolve_cols =
                    s.Prete_lp.Solver_stats.presolve_cols;
                }
                :: !combos)
            profs)
        traffic)
    topologies;
  {
    pt_seed = seed;
    pt_epochs = epochs;
    pt_scale = scale;
    pt_topologies = topologies;
    pt_traffic = traffic;
    pt_profiles = wanted;
    pt_policies = policies;
    pt_cells = List.rev !cells;
    pt_combos = List.rev !combos;
  }

(* ------------------------------------------------------------------ *)
(* Portfolio JSON                                                      *)
(* ------------------------------------------------------------------ *)

(* %.17g floats, no wall clocks anywhere: the portfolio is part of the
   bit-identical-at-any-domain-count contract (the sweep smoke compares
   it across domain counts). *)

module J = Prete_util.Json

let strings l = J.Array (List.map (fun s -> J.String s) l)

let cell_json c =
  J.Object
    [ ("topology", J.String c.cl_topology); ("traffic", J.String c.cl_traffic);
      ("profile", J.String c.cl_profile); ("policy", J.String c.cl_policy);
      ("phi", J.float c.cl_phi); ("availability", J.float c.cl_availability);
      ("nines", J.float c.cl_nines) ]

let combo_json c =
  let int = J.int in
  J.Object
    [ ("topology", J.String c.cb_topology); ("traffic", J.String c.cb_traffic);
      ("profile", J.String c.cb_profile); ("flows", int c.cb_flows);
      ("degr_epochs", int c.cb_degr_epochs); ("cut_epochs", int c.cb_cut_epochs);
      ("detections", int c.cb_detections); ("reacted_in_time", int c.cb_reacted);
      ("missed", int c.cb_missed); ("alarms", int c.cb_alarms); ("reactions", int c.cb_reactions);
      ("rungs", J.Object (List.map (fun (rg, n) -> (rg, int n)) c.cb_rungs));
      ( "detour",
        J.Object
          [ ("activations", int c.cb_detour_activations);
            ("rescued_epochs", int c.cb_detour_rescued);
            ("flows_patched", int c.cb_detour_flows_patched) ] );
      ( "solver",
        J.Object
          [ ("engine", J.String "lu"); ("solves", int c.cb_solver_solves);
            ("warm_solves", int c.cb_solver_warm_solves); ("pivots", int c.cb_solver_pivots);
            ("cache_hits", int c.cb_solver_cache_hits);
            ("cache_misses", int c.cb_solver_cache_misses);
            ("ft_updates", int c.cb_solver_ft_updates);
            ("bound_flips", int c.cb_solver_bound_flips);
            ("lu_fill_nnz", int c.cb_solver_lu_fill_nnz);
            ("presolve_rows", int c.cb_solver_presolve_rows);
            ("presolve_cols", int c.cb_solver_presolve_cols) ] ) ]

let to_json p =
  J.Object
    [ ("prete_sweep", J.int 1); ("seed", J.int p.pt_seed); ("epochs", J.int p.pt_epochs);
      ("scale", J.float p.pt_scale);
      ( "matrix",
        J.Object
          [ ("topologies", strings p.pt_topologies); ("traffic", strings p.pt_traffic);
            ("profiles", strings p.pt_profiles); ("policies", strings p.pt_policies) ] );
      ("cells", J.Array (List.map cell_json p.pt_cells));
      ("combos", J.Array (List.map combo_json p.pt_combos)) ]
