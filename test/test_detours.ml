(* Tests for the localized fast-recovery tier: precomputed per-fiber
   detours (Prete_net.Detours), the Resilience Detour rung, and the
   determinism contract of the detour-armed streaming runtime. *)

open Prete
open Prete_net

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

let fixture () =
  let topo = square () in
  let ts = Tunnels.build topo [ (0, 2); (1, 3) ] in
  (topo, ts)

let entry_key (e : Detours.entry) =
  (e.Detours.e_tunnel, e.Detours.e_detour, e.Detours.e_links, e.Detours.e_bottleneck)

let table_key dt fb =
  Option.map
    (fun pf ->
      ( List.map entry_key pf.Detours.pf_entries,
        pf.Detours.pf_flows,
        Array.map (fun t -> t.Tunnels.links) pf.Detours.pf_ts.Tunnels.tunnels ))
    (Detours.for_fiber dt fb)

(* ------------------------------------------------------------------ *)
(* Table construction                                                   *)
(* ------------------------------------------------------------------ *)

let test_build_tables_avoid_their_fiber () =
  let topo, ts = fixture () in
  let dt = Detours.build ts in
  let nf = Topology.num_fibers topo in
  let some = ref 0 in
  for fb = 0 to nf - 1 do
    match Detours.for_fiber dt fb with
    | None -> ()
    | Some pf ->
      incr some;
      Alcotest.(check int) "table fiber" fb pf.Detours.pf_fiber;
      Alcotest.(check bool) "has entries" true (pf.Detours.pf_entries <> []);
      let last = ref (-1) in
      List.iter
        (fun (e : Detours.entry) ->
          Alcotest.(check bool) "entries ascend by tunnel id" true
            (e.Detours.e_tunnel > !last);
          last := e.Detours.e_tunnel;
          Alcotest.(check bool) "base tunnel rides the fiber" true
            (Routing.uses_fiber topo
               ts.Tunnels.tunnels.(e.Detours.e_tunnel).Tunnels.links fb);
          Alcotest.(check bool) "detour avoids the fiber" false
            (Routing.uses_fiber topo e.Detours.e_links fb);
          Alcotest.(check bool) "positive bottleneck" true
            (e.Detours.e_bottleneck > 0.0);
          (* The extended set carries the detour under the same owner,
             endpoint-valid. *)
          let base = ts.Tunnels.tunnels.(e.Detours.e_tunnel) in
          let det = pf.Detours.pf_ts.Tunnels.tunnels.(e.Detours.e_detour) in
          Alcotest.(check int) "same owner" base.Tunnels.owner det.Tunnels.owner;
          let f = pf.Detours.pf_ts.Tunnels.flows.(base.Tunnels.owner) in
          Alcotest.(check bool) "detour connects the flow endpoints" true
            (Routing.path_valid topo ~src:f.Tunnels.src ~dst:f.Tunnels.dst
               det.Tunnels.links))
        pf.Detours.pf_entries;
      (* Base tunnels are untouched in the extended set. *)
      let nt = Array.length ts.Tunnels.tunnels in
      Alcotest.(check bool) "extended set grows" true
        (Array.length pf.Detours.pf_ts.Tunnels.tunnels > nt);
      for i = 0 to nt - 1 do
        Alcotest.(check bool) "base tunnel preserved" true
          (pf.Detours.pf_ts.Tunnels.tunnels.(i).Tunnels.links
          = ts.Tunnels.tunnels.(i).Tunnels.links)
      done;
      Alcotest.(check (list int)) "affected flows match the table"
        pf.Detours.pf_flows
        (Detours.affected_flows dt fb)
  done;
  Alcotest.(check bool) "at least one fiber has a table" true (!some > 0)

let test_build_deterministic_and_rebuild_identical () =
  let topo, ts = fixture () in
  let a = Detours.build ts in
  let b = Detours.build ts in
  let r = Detours.rebuild a ts in
  for fb = 0 to Topology.num_fibers topo - 1 do
    Alcotest.(check bool) "two builds agree" true (table_key a fb = table_key b fb);
    Alcotest.(check bool) "rebuild structurally identical" true
      (table_key a fb = table_key r fb);
    let one = Detours.build ~fibers:(Int.equal fb) ts in
    Alcotest.(check bool) "one-fiber build holds the fiber's table" true
      (table_key a fb = table_key one fb);
    Alcotest.(check bool) "and no other" true
      (List.for_all
         (fun g -> g = fb || Detours.for_fiber one g = None)
         (List.init (Topology.num_fibers topo) Fun.id))
  done

(* ------------------------------------------------------------------ *)
(* Splice                                                               *)
(* ------------------------------------------------------------------ *)

let loads topo (ts : Tunnels.t) alloc =
  let n = Topology.num_links topo in
  let load = Array.make n 0.0 in
  Array.iteri
    (fun tid t ->
      List.iter (fun l -> load.(l) <- load.(l) +. alloc.(tid)) t.Tunnels.links)
    ts.Tunnels.tunnels;
  load

let test_splice_moves_load_and_stays_feasible () =
  let topo, ts = fixture () in
  let dt = Detours.build ts in
  let demands = [| 5.0; 5.0 |] in
  let installed = Resilience.equal_split ts ~demands in
  let alloc = installed.Availability.p_alloc in
  let fb =
    (* First fiber with a table. *)
    let rec find i =
      if Detours.for_fiber dt i <> None then i else find (i + 1)
    in
    find 0
  in
  match Detours.splice dt ~fiber:fb ~alloc with
  | None -> Alcotest.fail "splice returned None on a bypassable fiber"
  | Some (ts', patched, rerouted, flows) ->
    Alcotest.(check bool) "rerouted some tunnels" true (rerouted > 0);
    Alcotest.(check bool) "patched some flows" true (flows > 0);
    Alcotest.(check int) "patched alloc indexed by the extended set"
      (Array.length ts'.Tunnels.tunnels)
      (Array.length patched);
    (* Evacuation semantics: totals never increase (the unreroutable
       remainder of a broken tunnel is dropped, not left on a dead
       path), and each flow's surviving allocation — tunnels avoiding
       the fiber, detours included — never decreases. *)
    let total (tset : Tunnels.t) a f =
      List.fold_left (fun acc tid -> acc +. a.(tid)) 0.0 tset.Tunnels.of_flow.(f)
    in
    let surviving (tset : Tunnels.t) a f =
      List.fold_left
        (fun acc tid ->
          if Routing.uses_fiber topo tset.Tunnels.tunnels.(tid).Tunnels.links fb
          then acc
          else acc +. a.(tid))
        0.0 tset.Tunnels.of_flow.(f)
    in
    Array.iteri
      (fun f _ ->
        Alcotest.(check bool)
          (Printf.sprintf "flow %d total never increases" f)
          true
          (total ts' patched f <= total ts alloc f +. 1e-9);
        Alcotest.(check bool)
          (Printf.sprintf "flow %d surviving allocation never decreases" f)
          true
          (surviving ts' patched f >= surviving ts alloc f -. 1e-9))
      ts.Tunnels.flows;
    (* No link oversubscribed (the installed plan wasn't either). *)
    let load = loads topo ts' patched in
    Array.iteri
      (fun l v ->
        Alcotest.(check bool)
          (Printf.sprintf "link %d within capacity" l)
          true
          (v <= (Topology.link topo l).Topology.capacity +. 1e-9))
      load;
    Alcotest.(check bool) "patched plan validates" true
      (Resilience.plan_feasible ts'
         {
           Availability.p_alloc = patched;
           p_ts = ts';
           p_admitted = installed.Availability.p_admitted;
           p_degraded = true;
         });
    (* Determinism: same inputs, same patch. *)
    (match Detours.splice dt ~fiber:fb ~alloc with
    | Some (_, patched2, _, _) ->
      Alcotest.(check bool) "splice is a pure function" true (patched = patched2)
    | None -> Alcotest.fail "second splice disagreed")

let test_splice_rejects_mismatched_alloc () =
  let _, ts = fixture () in
  let dt = Detours.build ts in
  Alcotest.(check bool) "length mismatch rejected" true
    (Detours.splice dt ~fiber:0 ~alloc:[| 1.0 |] = None)

let test_latency_model_bounded () =
  let topo, ts = fixture () in
  let dt = Detours.build ts in
  let bound = Detours.latency_bound_s dt in
  Alcotest.(check bool) "bound positive" true (bound > 0.0);
  for fb = 0 to Topology.num_fibers topo - 1 do
    let l = Detours.install_latency_s dt ~fiber:fb in
    Alcotest.(check bool) "latency positive" true (l > 0.0);
    Alcotest.(check bool) "latency under the bound" true (l <= bound +. 1e-12)
  done

(* ------------------------------------------------------------------ *)
(* The Detour rung                                                      *)
(* ------------------------------------------------------------------ *)

let detour_fixture () =
  let _, ts = fixture () in
  let dt = Detours.build ts in
  let demands = [| 5.0; 5.0 |] in
  let installed = Resilience.equal_split ts ~demands in
  let fb =
    let rec find i = if Detours.for_fiber dt i <> None then i else find (i + 1) in
    find 0
  in
  (ts, dt, demands, installed, fb)

let test_detour_patch_outcome () =
  let _, dt, _, installed, fb = detour_fixture () in
  match Resilience.detour_patch ~detours:dt ~installed ~fiber:fb with
  | None -> Alcotest.fail "detour_patch returned None on a bypassable fiber"
  | Some o ->
    Alcotest.(check bool) "detour rung" true (o.Resilience.rung = Resilience.Detour);
    Alcotest.(check bool) "detour cause" true
      (o.Resilience.cause = Some (Resilience.Detour_applied fb));
    Alcotest.(check bool) "patched plan marked degraded" true
      o.Resilience.plan.Availability.p_degraded;
    Alcotest.(check bool) "feasible against its own tunnel set" true
      (Resilience.plan_feasible o.Resilience.plan.Availability.p_ts
         o.Resilience.plan);
    Alcotest.(check bool) "no backoff charged" true (o.Resilience.backoff_s = 0.0)

let test_detour_rung_preempts_primary_and_never_caches () =
  let ts, dt, demands, installed, fb = detour_fixture () in
  let ladder = Resilience.create () in
  let called = ref false in
  let o =
    Resilience.plan_epoch ladder ~ts ~demands
      ~detour:(dt, installed, fb)
      ~primary:(fun ~warm:_ () ->
        called := true;
        (Resilience.equal_split ts ~demands, None))
      ()
  in
  Alcotest.(check bool) "detour rung served" true
    (o.Resilience.rung = Resilience.Detour);
  Alcotest.(check bool) "no solve on the activation path" false !called;
  Alcotest.(check bool) "detour never becomes last-good" true
    (Resilience.last_good ladder = None);
  (* Prime last-good with a primary success, then detour again: the
     cache must keep the primary plan, untouched. *)
  let o1 =
    Resilience.plan_epoch ladder ~ts ~demands
      ~primary:(fun ~warm:_ () -> (Resilience.equal_split ts ~demands, None))
      ()
  in
  Alcotest.(check bool) "primary rung" true (o1.Resilience.rung = Resilience.Primary);
  let cached = Resilience.last_good ladder in
  Alcotest.(check bool) "last-good primed" true (cached <> None);
  ignore
    (Resilience.plan_epoch ladder ~ts ~demands
       ~detour:(dt, installed, fb)
       ~primary:(fun ~warm:_ () -> (Resilience.equal_split ts ~demands, None))
       ());
  Alcotest.(check bool) "detour leaves last-good untouched" true
    (Resilience.last_good ladder == cached)

let test_detour_armed_chaos_counts () =
  (* run_chaos ~detours: the rung tally gains a detour column, sums
     still cover every epoch, and disarmed runs never count one. *)
  let topo = Topology.by_name "grid3" in
  let env = Availability.make_env topo in
  let scheme =
    Schemes.prete_default
      ~predictor:(Prete_optics.Hazard.eval ~num_fibers:(Topology.num_fibers topo))
      ()
  in
  let dt = Detours.build env.Availability.ts in
  (* Seed 3 yields degradation observations within 30 epochs on grid3;
     the default seed happens to see none. *)
  let base = Simulate.run_chaos ~seed:3 ~epochs:30 env scheme ~scale:2.0 in
  let armed =
    Simulate.run_chaos ~seed:3 ~epochs:30 ~detours:dt env scheme ~scale:2.0
  in
  let sum (r : Simulate.chaos_result) =
    r.Simulate.c_detour + r.Simulate.c_primary + r.Simulate.c_cached
    + r.Simulate.c_equal_split
  in
  Alcotest.(check int) "disarmed: no detour epochs" 0 base.Simulate.c_detour;
  Alcotest.(check int) "disarmed: counts cover epochs" base.Simulate.c_epochs
    (sum base);
  Alcotest.(check int) "armed: counts cover epochs" armed.Simulate.c_epochs
    (sum armed);
  Alcotest.(check bool) "armed: detour rung fired" true (armed.Simulate.c_detour > 0)

(* ------------------------------------------------------------------ *)
(* The streaming engine with the tier armed                              *)
(* ------------------------------------------------------------------ *)

module Rt = Prete_rt.Runtime
module Sh = Prete_rt.Shard

(* grid3 windows, and B4 runs in which the tier rescues missed cuts
   (seed 5 twice, seed 8 three times in 150 epochs). *)
let tier_configs =
  let d = Rt.default_config in
  [
    { d with Rt.topology = "grid3"; epochs = 10; seed = 11 };
    { d with Rt.topology = "grid3"; epochs = 12; seed = 3 };
    { d with Rt.epochs = 150; seed = 5 };
    { d with Rt.epochs = 150; seed = 8 };
  ]

let run ?(domains = 1) cfg =
  Prete_exec.Pool.with_pool ~domains (fun pool -> Sh.run ~pool cfg)

let test_runtime_detour_deterministic_and_dominant () =
  let rescued =
    List.map
      (fun cfg ->
        let what = Printf.sprintf "%s seed %d" cfg.Rt.topology cfg.Rt.seed in
        let r = run cfg in
        List.iter
          (fun (shards, domains) ->
            Alcotest.(check string)
              (Printf.sprintf "%s: core at %d shards x %d domains" what shards domains)
              (Sh.deterministic_core r)
              (Sh.deterministic_core (run ~domains { cfg with Rt.shards })))
          [ (2, 1); (1, 4); (2, 4) ];
        (match r.Sh.s_avail_detour with
        | Some det ->
          Alcotest.(check bool) (what ^ ": stream+detour never below stream") true
            (det >= r.Sh.s_avail_stream)
        | None -> Alcotest.fail "detour tier should be armed by default");
        Prete_rt.Metrics.counter r.Sh.s_metrics "detour_rescued_epochs")
      tier_configs
  in
  Alcotest.(check (list int)) "rescued epochs" [ 0; 0; 2; 3 ] rescued

(* The tier adds a policy and its own events; every other outcome —
   the three other policies' bits, the summary counts, the detections —
   is the same with it disarmed. *)
let test_detour_changes_nothing_else () =
  List.iter
    (fun cfg ->
      let what = Printf.sprintf "%s seed %d" cfg.Rt.topology cfg.Rt.seed in
      let on = run cfg and off = run { cfg with Rt.detour = false } in
      Alcotest.(check bool) (what ^ ": disarmed reports no detour availability") true
        (off.Sh.s_avail_detour = None);
      List.iter
        (fun (name, f) ->
          Alcotest.(check int64) (what ^ ": " ^ name)
            (Int64.bits_of_float (f off))
            (Int64.bits_of_float (f on)))
        [
          ("stream", fun r -> r.Sh.s_avail_stream);
          ("periodic", fun r -> r.Sh.s_avail_periodic);
          ("instant", fun r -> r.Sh.s_avail_instant);
        ];
      let summary r =
        Sh.
          [ r.s_degr_epochs; r.s_cut_epochs; r.s_reacted_in_time; r.s_missed; r.s_alarms;
            r.s_batches; r.s_batched; r.s_shed; r.s_deferred; r.s_debounced ]
      in
      Alcotest.(check (list int)) (what ^ ": summary counts") (summary off) (summary on);
      Alcotest.(check bool) (what ^ ": detections") true
        (off.Sh.s_detections = on.Sh.s_detections))
    tier_configs

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "prete_detours"
    [
      ( "tables",
        [
          Alcotest.test_case "detours avoid their fiber" `Quick
            test_build_tables_avoid_their_fiber;
          Alcotest.test_case "build deterministic, rebuild identical" `Quick
            test_build_deterministic_and_rebuild_identical;
        ] );
      ( "splice",
        [
          Alcotest.test_case "moves load, stays feasible" `Quick
            test_splice_moves_load_and_stays_feasible;
          Alcotest.test_case "rejects mismatched alloc" `Quick
            test_splice_rejects_mismatched_alloc;
          Alcotest.test_case "latency model bounded" `Quick test_latency_model_bounded;
        ] );
      ( "rung",
        [
          Alcotest.test_case "detour_patch outcome" `Quick test_detour_patch_outcome;
          Alcotest.test_case "preempts primary, never cached" `Quick
            test_detour_rung_preempts_primary_and_never_caches;
          Alcotest.test_case "chaos rung tally" `Slow test_detour_armed_chaos_counts;
        ] );
      ( "runtime",
        [
          Alcotest.test_case "deterministic + dominant with tier armed" `Slow
            test_runtime_detour_deterministic_and_dominant;
          Alcotest.test_case "arming the tier changes nothing else" `Slow
            test_detour_changes_nothing_else;
        ] );
    ]
