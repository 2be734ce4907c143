open Prete_net
open Prete_lp

type cause =
  | Solver_timeout
  | Solver_numerical of string
  | Infeasible_beta of string
  | Telemetry_gap
  | Plan_rejected
  | Detour_applied of int
  | Unexpected of string

let cause_name = function
  | Solver_timeout -> "solver-timeout"
  | Solver_numerical _ -> "solver-numerical"
  | Infeasible_beta _ -> "infeasible-beta"
  | Telemetry_gap -> "telemetry-gap"
  | Plan_rejected -> "plan-rejected"
  | Detour_applied _ -> "detour-applied"
  | Unexpected _ -> "unexpected"

type rung = Detour | Primary | Cached | Equal_split

let rung_name = function
  | Detour -> "detour"
  | Primary -> "primary"
  | Cached -> "cached"
  | Equal_split -> "equal-split"

type attempt = {
  att_rung : rung;
  att_tries : int;
  att_backoff_s : float;
  att_cause : cause option;
}

type outcome = {
  plan : Availability.plan;
  rung : rung;
  cause : cause option;
  attempts : attempt list;
  backoff_s : float;
}

let degraded o = o.rung <> Primary || o.plan.Availability.p_degraded

type t = {
  max_tries : int;
  base_backoff_s : float;
  mutable last_good : Availability.plan option;
  mutable last_basis : Simplex.basis option;
  state_lock : Mutex.t;
      (* Guards the two retained-state fields ("rung 0" basis and the
         Cached rung's plan) so one ladder can serve epochs running on
         several domains.  The lock is never held across a solve — only
         across the read/update of the retained state itself. *)
}

let create ?(max_tries = 2) ?(base_backoff_s = 0.1) () =
  if max_tries < 1 then invalid_arg "Resilience.create: max_tries must be >= 1";
  {
    max_tries;
    base_backoff_s;
    last_good = None;
    last_basis = None;
    state_lock = Mutex.create ();
  }

let guarded t f =
  Mutex.lock t.state_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.state_lock) f

let last_basis t = guarded t (fun () -> t.last_basis)

let last_good t = guarded t (fun () -> t.last_good)

let classify = function
  | Simplex.Timeout -> Solver_timeout
  | Simplex.Numerical msg -> Solver_numerical msg
  | Te.Infeasible_problem msg -> Infeasible_beta msg
  | e -> Unexpected (Printexc.to_string e)

(* One variable per tunnel (id order), one capacity row per used link: the
   minimal model under which an allocation vector is routable. *)
let capacity_model (ts : Tunnels.t) =
  let topo = ts.Tunnels.topo in
  let m = Lp.create () in
  let a_vars =
    Array.map (fun _ -> Lp.add_var m "") ts.Tunnels.tunnels
  in
  List.iter
    (fun (lid, terms) ->
      let terms = List.map (fun (tid, c) -> (c, a_vars.(tid))) terms in
      ignore (Lp.add_constraint m terms Lp.Le (Topology.link topo lid).Topology.capacity))
    (Te.capacity_terms ts);
  m

let plan_feasible (ts : Tunnels.t) (plan : Availability.plan) =
  Array.length plan.Availability.p_alloc = Array.length ts.Tunnels.tunnels
  && Simplex.feasible (capacity_model ts) plan.Availability.p_alloc

(* Equal split with per-tunnel bottleneck scaling.  After scaling, the load
   of link l is Σ_t r_t·s_t with s_t ≤ factor_l for every t through l, so
   load'_l ≤ factor_l · load_l ≤ c_l: capacity-feasible by construction.
   The safety margin absorbs floating-point round-off against the
   validator's absolute epsilon. *)
let equal_split (ts : Tunnels.t) ~demands =
  let topo = ts.Tunnels.topo in
  let nt = Array.length ts.Tunnels.tunnels in
  let rate = Array.make nt 0.0 in
  Array.iteri
    (fun f tids ->
      let d = demands.(f) in
      let n = List.length tids in
      if d > 0.0 && n > 0 then
        List.iter (fun tid -> rate.(tid) <- d /. float_of_int n) tids)
    ts.Tunnels.of_flow;
  let load = Array.make (Topology.num_links topo) 0.0 in
  Array.iteri
    (fun tid r ->
      if r > 0.0 then
        List.iter
          (fun lid -> load.(lid) <- load.(lid) +. r)
          ts.Tunnels.tunnels.(tid).Tunnels.links)
    rate;
  let factor lid =
    let c = (Topology.link topo lid).Topology.capacity in
    if load.(lid) <= c then 1.0 else c /. load.(lid)
  in
  let safety = 1.0 -. 1e-9 in
  let alloc =
    Array.mapi
      (fun tid r ->
        if r <= 0.0 then 0.0
        else
          let bottleneck =
            List.fold_left
              (fun b lid -> Float.min b (factor lid))
              1.0
              ts.Tunnels.tunnels.(tid).Tunnels.links
          in
          r *. bottleneck *. safety)
      rate
  in
  { Availability.p_alloc = alloc; p_ts = ts; p_admitted = None; p_degraded = true }

(* The Detour rung's plan: splice the precomputed detours for [fiber]
   into the installed allocation, then revalidate against the extended
   tunnel set.  Marked degraded so no plan cache will retain it. *)
let try_detour ~detours ~(installed : Availability.plan) ~fiber =
  match
    Detours.splice detours ~fiber ~alloc:installed.Availability.p_alloc
  with
  | None -> None
  | Some (ts', alloc', _rerouted, _flows) ->
    let plan =
      {
        Availability.p_alloc = alloc';
        p_ts = ts';
        p_admitted = installed.Availability.p_admitted;
        p_degraded = true;
      }
    in
    if plan_feasible ts' plan then Some plan else None

let detour_attempt cause =
  { att_rung = Detour; att_tries = 1; att_backoff_s = 0.0; att_cause = cause }

let detour_patch ~detours ~installed ~fiber =
  match try_detour ~detours ~installed ~fiber with
  | None -> None
  | Some plan ->
    Some
      {
        plan;
        rung = Detour;
        cause = Some (Detour_applied fiber);
        attempts = [ detour_attempt None ];
        backoff_s = 0.0;
      }

let plan_epoch t ~ts ~demands ?(telemetry_gap = false) ?detour ~primary () =
  let attempts = ref [] in
  let push a = attempts := a :: !attempts in
  let finish plan rung cause =
    let attempts = List.rev !attempts in
    let backoff_s =
      List.fold_left (fun acc a -> acc +. a.att_backoff_s) 0.0 attempts
    in
    { plan; rung; cause; attempts; backoff_s }
  in
  (* Top rung, link-failure causes only: splice precomputed detours into
     the installed plan for the affected tunnels.  A successful patch is
     returned immediately — it is the reaction whose latency does not
     depend on the LP; the warm re-solve replaces it when it lands.  The
     detour plan never refreshes the last-good cache (only validated
     Primary successes below do), so the ladder cannot feed on patched
     plans. *)
  let detoured =
    match detour with
    | None -> None
    | Some (detours, installed, fiber) ->
      (match try_detour ~detours ~installed ~fiber with
      | Some plan ->
        push (detour_attempt None);
        Some (finish plan Detour (Some (Detour_applied fiber)))
      | None ->
        push (detour_attempt (Some Plan_rejected));
        None)
  in
  match detoured with
  | Some outcome -> outcome
  | None ->
  (* Rung 1: the scheme's own solve, retried with charged backoff. *)
  let primary_result =
    if telemetry_gap then begin
      push
        {
          att_rung = Primary;
          att_tries = 0;
          att_backoff_s = 0.0;
          att_cause = Some Telemetry_gap;
        };
      Error Telemetry_gap
    end
    else begin
      let last_cause = ref Plan_rejected in
      let backoff = ref 0.0 in
      let found = ref None in
      let k = ref 0 in
      while Option.is_none !found && !k < t.max_tries do
        if !k > 0 then
          backoff := !backoff +. (t.base_backoff_s *. (2.0 ** float_of_int (!k - 1)));
        incr k;
        (* Rung 0 of the ladder: hand the primary the last successful
           solve's basis.  A stale basis is safe — the solver's repair
           path treats it as a hint, never as ground truth. *)
        let warm = guarded t (fun () -> t.last_basis) in
        match primary ~warm () with
        | exception e -> last_cause := classify e
        | plan, basis ->
          (* A plan with tunnel updates is indexed by its own (merged)
             tunnel set; validate against that. *)
          if plan_feasible plan.Availability.p_ts plan then begin
            (match basis with
            | Some _ -> guarded t (fun () -> t.last_basis <- basis)
            | None -> ());
            found := Some plan
          end
          else last_cause := Plan_rejected
      done;
      match !found with
      | Some plan ->
        push
          {
            att_rung = Primary;
            att_tries = !k;
            att_backoff_s = !backoff;
            att_cause = None;
          };
        Ok plan
      | None ->
        push
          {
            att_rung = Primary;
            att_tries = !k;
            att_backoff_s = !backoff;
            att_cause = Some !last_cause;
          };
        Error !last_cause
    end
  in
  match primary_result with
  | Ok plan ->
    (* Only primary successes refresh the cache: re-caching a fallback
       would let the ladder feed on its own output. *)
    guarded t (fun () -> t.last_good <- Some plan);
    finish plan Primary None
  | Error root ->
    (* Rung 2: last-good plan, revalidated against the current tunnels.
       The snapshot is taken under the lock; validation (an LP check)
       deliberately runs outside it. *)
    let cached_ok =
      match guarded t (fun () -> t.last_good) with
      | Some plan when plan_feasible ts plan -> Some plan
      | _ -> None
    in
    (match cached_ok with
    | Some plan ->
      push
        { att_rung = Cached; att_tries = 1; att_backoff_s = 0.0; att_cause = None };
      finish plan Cached (Some root)
    | None ->
      push
        {
          att_rung = Cached;
          att_tries = 1;
          att_backoff_s = 0.0;
          att_cause = Some Plan_rejected;
        };
      (* Rung 3: feasible by construction. *)
      let plan = equal_split ts ~demands in
      push
        {
          att_rung = Equal_split;
          att_tries = 1;
          att_backoff_s = 0.0;
          att_cause = None;
        };
      finish plan Equal_split (Some root))

let notes o =
  List.map
    (fun a ->
      let status =
        match a.att_cause with None -> "ok" | Some c -> cause_name c
      in
      {
        Controller.note_stage = Controller.Te_compute;
        label = Printf.sprintf "%s:%s" (rung_name a.att_rung) status;
        detail =
          (match a.att_cause with
          | None -> Printf.sprintf "%s rung accepted a plan" (rung_name a.att_rung)
          | Some Solver_timeout -> "solve budget expired before a feasible incumbent"
          | Some (Solver_numerical msg) -> "solver numerical failure: " ^ msg
          | Some (Infeasible_beta msg) -> "TE problem infeasible: " ^ msg
          | Some Telemetry_gap -> "telemetry gap; primary solve skipped"
          | Some Plan_rejected -> "no validated plan at this rung"
          | Some (Detour_applied fb) ->
            Printf.sprintf "precomputed detours spliced around fiber %d" fb
          | Some (Unexpected msg) -> "unexpected failure: " ^ msg);
        tries = a.att_tries;
        backoff_s = a.att_backoff_s;
      })
    o.attempts
