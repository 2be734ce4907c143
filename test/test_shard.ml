(* Fleet-scale sharded runtime (Prete_rt.Shard) tests.

   The load-bearing guarantees:
   - Shard.partition is a pure function of (topology, shards, seed): every
     fiber lands in exactly one region, regions are connected through
     shared endpoints, and the map is identical no matter what pool
     context surrounds the call;
   - the coalescer batches, defers, and sheds exactly as specified, and
     the accounting identity alarms = debounced + shed + batched holds;
   - Shard.run's deterministic core is bit-identical at any
     (shards x domains) combination, including under shedding, and
     replays from its own dump. *)

open Prete_net
open Prete_rt

let qsuite tests = List.map (QCheck_alcotest.to_alcotest ~long:false) tests

(* ------------------------------------------------------------------ *)
(* Partition properties                                                *)
(* ------------------------------------------------------------------ *)

let topo_names = [ "grid3"; "grid4"; "wan12"; "wan26" ]

let gen_case =
  QCheck.make
    ~print:(fun (t, k, s) -> Printf.sprintf "(%s, shards:%d, seed:%d)" t k s)
    QCheck.Gen.(
      triple (oneofl topo_names) (int_range 1 8) (int_range 0 10_000))

(* Same adjacency the partitioner uses: fibers sharing an endpoint. *)
let adjacency topo =
  let n = Topology.num_fibers topo in
  Array.init n (fun i ->
      let a, b = (Topology.fiber topo i).Topology.endpoints in
      List.filter
        (fun j ->
          j <> i
          &&
          let a', b' = (Topology.fiber topo j).Topology.endpoints in
          a = a' || a = b' || b = a' || b = b')
        (List.init n Fun.id))

let prop_partition_covers =
  QCheck.Test.make ~name:"every fiber in exactly one region" ~count:60 gen_case
    (fun (name, shards, seed) ->
      let topo = Topology.by_name name in
      let n = Topology.num_fibers topo in
      let pt = Shard.partition topo ~shards ~seed in
      let seen = Array.make n 0 in
      Array.iter
        (fun members -> Array.iter (fun f -> seen.(f) <- seen.(f) + 1) members)
        pt.Shard.pt_regions;
      pt.Shard.pt_shards = min shards n
      && Array.for_all (fun c -> c = 1) seen
      && Array.for_all
           (fun f ->
             let r = pt.Shard.pt_region_of.(f) in
             r >= 0 && r < pt.Shard.pt_shards
             && Array.mem f pt.Shard.pt_regions.(r))
           (Array.init n Fun.id))

let prop_partition_pure =
  QCheck.Test.make
    ~name:"partition is a pure function of (env, seed) at any domain count"
    ~count:40 gen_case (fun (name, shards, seed) ->
      let topo = Topology.by_name name in
      let at domains =
        Prete_exec.Pool.with_pool ~domains (fun _pool ->
            Shard.partition topo ~shards ~seed)
      in
      let p1 = at 1 and p4 = at 4 in
      p1.Shard.pt_region_of = p4.Shard.pt_region_of
      && p1.Shard.pt_regions = p4.Shard.pt_regions
      && p1 = Shard.partition topo ~shards ~seed)

let prop_partition_connected =
  QCheck.Test.make ~name:"every region is connected via shared endpoints"
    ~count:60 gen_case (fun (name, shards, seed) ->
      let topo = Topology.by_name name in
      let adj = adjacency topo in
      let pt = Shard.partition topo ~shards ~seed in
      Array.for_all
        (fun members ->
          Array.length members <= 1
          ||
          let inside = Array.to_list members in
          let visited = Hashtbl.create 16 in
          let rec dfs f =
            if not (Hashtbl.mem visited f) then begin
              Hashtbl.replace visited f ();
              List.iter dfs (List.filter (fun g -> List.mem g inside) adj.(f))
            end
          in
          dfs members.(0);
          List.for_all (Hashtbl.mem visited) inside)
        pt.Shard.pt_regions)

let test_partition_rejects () =
  Alcotest.check_raises "non-positive shards"
    (Invalid_argument "Shard.partition: shards must be positive") (fun () ->
      ignore (Shard.partition (Topology.by_name "grid3") ~shards:0 ~seed:1))

(* ------------------------------------------------------------------ *)
(* Coalescer                                                           *)
(* ------------------------------------------------------------------ *)

let no_shed ~tick:_ _ = Alcotest.fail "unexpected shed"

let test_coalescer_immediate_and_deferred () =
  let c = Shard.Coalescer.create ~queue_bound:4 ~policy:Runtime.Drop_newest () in
  let batches = ref [] in
  let dispatch t items =
    batches := (t, items) :: !batches;
    t + 10
  in
  (* Controller free: same-tick arrivals launch as one batch. *)
  Shard.Coalescer.offer c ~now:5 ~dispatch ~shed:no_shed [ "a"; "b" ];
  Alcotest.(check int) "busy until completion" 15 (Shard.Coalescer.busy_until c);
  Alcotest.(check int) "no backlog" 0 (Shard.Coalescer.backlog c);
  (* Busy: the next arrival waits. *)
  Shard.Coalescer.offer c ~now:7 ~dispatch ~shed:no_shed [ "c" ];
  Alcotest.(check int) "staged" 1 (Shard.Coalescer.backlog c);
  (* Once free, the backlog launches at the free tick, then the new
     arrival waits behind the fresh solve. *)
  Shard.Coalescer.offer c ~now:20 ~dispatch ~shed:no_shed [ "d" ];
  Alcotest.(check int) "d staged behind the backlog batch" 1
    (Shard.Coalescer.backlog c);
  Shard.Coalescer.flush c ~dispatch;
  Alcotest.(check int) "drained" 0 (Shard.Coalescer.backlog c);
  Alcotest.(check (list (pair int (list string))))
    "batch schedule"
    [ (5, [ "a"; "b" ]); (15, [ "c" ]); (25, [ "d" ]) ]
    (List.rev !batches);
  let offered, nbatches, batched, shed, deferred = Shard.Coalescer.stats c in
  Alcotest.(check (list int)) "stats" [ 4; 3; 4; 0; 2 ]
    [ offered; nbatches; batched; shed; deferred ]

let test_coalescer_drop_newest () =
  let c = Shard.Coalescer.create ~queue_bound:1 ~policy:Runtime.Drop_newest () in
  let shed_log = ref [] in
  let shed ~tick x = shed_log := (tick, x) :: !shed_log in
  let dispatch t _ = t + 10 in
  Shard.Coalescer.offer c ~now:0 ~dispatch ~shed [ "a" ];
  Shard.Coalescer.offer c ~now:1 ~dispatch ~shed [ "b" ];
  Shard.Coalescer.offer c ~now:2 ~dispatch ~shed [ "c" ];
  Alcotest.(check (list (pair int string))) "arriving reaction shed"
    [ (2, "c") ] (List.rev !shed_log);
  let survivors = ref [] in
  Shard.Coalescer.flush c ~dispatch:(fun _ items ->
      survivors := items;
      0);
  Alcotest.(check (list string)) "oldest survived" [ "b" ] !survivors

let test_coalescer_drop_oldest () =
  let c = Shard.Coalescer.create ~queue_bound:1 ~policy:Runtime.Drop_oldest () in
  let shed_log = ref [] in
  let shed ~tick x = shed_log := (tick, x) :: !shed_log in
  let dispatch t _ = t + 10 in
  Shard.Coalescer.offer c ~now:0 ~dispatch ~shed [ "a" ];
  Shard.Coalescer.offer c ~now:1 ~dispatch ~shed [ "b" ];
  Shard.Coalescer.offer c ~now:2 ~dispatch ~shed [ "c" ];
  Alcotest.(check (list (pair int string))) "oldest staged evicted"
    [ (2, "b") ] (List.rev !shed_log);
  let survivors = ref [] in
  Shard.Coalescer.flush c ~dispatch:(fun _ items ->
      survivors := items;
      0);
  Alcotest.(check (list string)) "newest survived" [ "c" ] !survivors

let test_coalescer_bound_zero () =
  let c = Shard.Coalescer.create ~queue_bound:0 ~policy:Runtime.Drop_oldest () in
  let shed_log = ref [] in
  let shed ~tick x = shed_log := (tick, x) :: !shed_log in
  let dispatch t _ = t + 10 in
  Shard.Coalescer.offer c ~now:0 ~dispatch ~shed [ "a" ];
  Shard.Coalescer.offer c ~now:3 ~dispatch ~shed [ "b"; "c" ];
  Alcotest.(check (list (pair int string)))
    "nothing may wait: every busy-window arrival sheds"
    [ (3, "b"); (3, "c") ]
    (List.rev !shed_log);
  let offered, batches, batched, shed_n, deferred = Shard.Coalescer.stats c in
  Alcotest.(check (list int)) "stats" [ 3; 1; 1; 2; 0 ]
    [ offered; batches; batched; shed_n; deferred ];
  Alcotest.check_raises "negative bound rejected"
    (Invalid_argument "Shard.Coalescer.create: negative queue_bound")
    (fun () ->
      ignore
        (Shard.Coalescer.create ~queue_bound:(-1) ~policy:Runtime.Drop_newest
           ()))

(* ------------------------------------------------------------------ *)
(* The engine: shard/domain invariance, accounting, replay             *)
(* ------------------------------------------------------------------ *)

let sh_config =
  {
    Runtime.default_config with
    Runtime.topology = "grid3";
    epochs = 6;
    seed = 3;
    shards = 1;
  }

let run_at ~domains ~shards cfg =
  Prete_exec.Pool.with_pool ~domains (fun pool ->
      Shard.run ~pool { cfg with Runtime.shards })

let shared = lazy (run_at ~domains:1 ~shards:1 sh_config)

let test_shard_count_invariance () =
  let r1 = Lazy.force shared in
  let core = Shard.deterministic_core r1 in
  List.iter
    (fun (domains, shards) ->
      let r = run_at ~domains ~shards sh_config in
      Alcotest.(check bool)
        (Printf.sprintf "bit-identical core at %d shards x %d domains" shards
           domains)
        true
        (String.equal core (Shard.deterministic_core r)))
    [ (1, 2); (1, 4); (4, 4); (2, 3) ]

let test_shard_accounting_and_ring () =
  let r = Lazy.force shared in
  Alcotest.(check bool) "pipeline streamed every fiber" true
    (Prete_rt.Metrics.counter r.Shard.s_metrics "fibers_streamed"
    = r.Shard.s_epochs * Array.length r.Shard.s_partition.Shard.pt_region_of);
  Alcotest.(check bool) "alarms fired" true (r.Shard.s_alarms > 0);
  Alcotest.(check bool) "accounted" true (Shard.accounted r);
  Alcotest.(check int) "no ring drops at default capacity" 0
    (Ring.dropped r.Shard.s_ring);
  Alcotest.(check int) "ring_dropped counter is zero" 0
    (Prete_rt.Metrics.counter r.Shard.s_metrics "ring_dropped");
  Alcotest.(check bool) "streaming >= periodic-only" true
    (r.Shard.s_avail_stream >= r.Shard.s_avail_periodic -. 1e-9);
  Alcotest.(check bool) "throughput rates positive" true
    (Shard.aggregate_rate r > 0.0 && Shard.tick_rate r > 0.0)

let replay_ok ~domains dump =
  match Prete_exec.Pool.with_pool ~domains (fun pool -> Shard.replay ~pool dump) with
  | Ok (_, ok) -> ok
  | Error e -> Alcotest.failf "replay rejected the dump: %s" e

let test_shard_replay () =
  let r = Lazy.force shared in
  let json = Shard.dump r in
  let cfg =
    match Runtime.config_of_dump json with
    | Ok (cfg, _) -> cfg
    | Error e -> Alcotest.failf "config_of_dump: %s" e
  in
  Alcotest.(check int) "config roundtrip: epochs" 6 cfg.Runtime.epochs;
  Alcotest.(check int) "config roundtrip: queue_bound" 64
    cfg.Runtime.queue_bound;
  Alcotest.(check bool) "replay reproduces the deterministic core" true
    (replay_ok ~domains:2 json)

(* A 2-shard dump written by an earlier build (committed beside the
   tests) still reads and replays to the same core. *)
let test_shard_fixture_replays () =
  let name = "fixtures/stream_grid3_s3_shards2.json" in
  match Prete_util.Json.parse (In_channel.with_open_bin name In_channel.input_all) with
  | Error e -> Alcotest.failf "%s: %s" name e
  | Ok dump ->
    Alcotest.(check bool) "replays the committed core" true (replay_ok ~domains:2 dump)

(* Shedding must not depend on the partition: a hair-trigger detector
   with a tight bound sheds identically at 1 and 4 shards. *)
let test_shed_partition_invariant () =
  let cfg =
    {
      sh_config with
      Runtime.epochs = 3;
      debounce_s = 0;
      queue_bound = 1;
      detector =
        {
          Detector.default_config with
          Detector.cusum_k = 0.0;
          cusum_h = 0.01;
        };
    }
  in
  let r1 = run_at ~domains:1 ~shards:1 cfg in
  let r4 = run_at ~domains:1 ~shards:4 cfg in
  Alcotest.(check bool) "overload actually sheds" true (r1.Shard.s_shed > 0);
  Alcotest.(check bool) "accounted under shedding" true
    (Shard.accounted r1 && Shard.accounted r4);
  Alcotest.(check int) "same sheds at 1 and 4 shards" r1.Shard.s_shed
    r4.Shard.s_shed;
  Alcotest.(check bool) "bit-identical core under shedding" true
    (String.equal
       (Shard.deterministic_core r1)
       (Shard.deterministic_core r4));
  (* Policy is behavior, not bookkeeping: drop-oldest on the same
     overload also balances its books. *)
  let ro =
    run_at ~domains:1 ~shards:4
      { cfg with Runtime.shed_policy = Runtime.Drop_oldest }
  in
  Alcotest.(check bool) "drop-oldest accounted" true (Shard.accounted ro)

(* Golden outputs of the sharded ingest path on TWAN with the default
   impairments: the digest of the deterministic core and the summed
   ingest counters, at 1 and 4 shards.  The constants were recorded
   before the event queue, the reorder window and the RNG state were
   made flat, so any change that alters a stream, an arrival order or a
   gap fill shows here.  Seed 24 alarms twice within its two epochs; seed
   1 does not alarm.  Seed 24's digest was re-recorded when the three
   policy evaluations began sharing one plan table: the degraded state's
   plan is solved once instead of twice, so [predictor_served] drops
   from 6 to 5 and nothing else in the core moves.  Both digests were
   re-recorded when the detour tier moved into this engine: the core
   gained the [stream_detour] availability and the
   [detour_rescued_epochs] counter (seed 1 was c942dc84…, seed 24
   a15c287f…), and seed 24's two alarms add their detour events,
   counters, histograms and [avail_detour] gauge; nothing else moved. *)
let golden_twan =
  [
    (1, "04d434d86c07c95a9bd46f2aa718f753", (880, 0, 1772));
    (24, "495f954da57a30b006b279e33c207d10", (863, 0, 1873));
  ]

let test_golden_twan () =
  List.iter
    (fun (seed, digest, (dups, late, filled)) ->
      List.iter
        (fun shards ->
          let cfg =
            {
              Runtime.default_config with
              Runtime.topology = "TWAN";
              epochs = 2;
              seed;
            }
          in
          let r = run_at ~domains:1 ~shards cfg in
          let what = Printf.sprintf "seed %d at %d shards" seed shards in
          let m = r.Shard.s_metrics in
          Alcotest.(check string)
            (what ^ ": core digest")
            digest
            (Digest.to_hex (Digest.string (Shard.deterministic_core r)));
          Alcotest.(check (triple int int int))
            (what ^ ": dups/late/filled")
            (dups, late, filled)
            ( Prete_rt.Metrics.counter m "dups",
              Prete_rt.Metrics.counter m "late",
              Prete_rt.Metrics.counter m "gaps_filled" );
          if seed = 24 then
            Alcotest.(check bool) (what ^ ": alarms") true (r.Shard.s_alarms > 0))
        [ 1; 4 ])
    golden_twan

(* The stream, periodic and instant evaluations share one plan table.
   Each availability must be bit-identical to evaluating its state
   vector alone, with a fresh table, on TWAN windows that alarm.  The
   stream state is rebuilt from the detections as Shard.run builds it:
   the state fiber counts when its reaction installed before its cut
   (or before the epoch ended). *)
let test_shared_plan_table () =
  let module Sim = Prete.Simulate.Internal in
  let epoch_len = Runtime.Internal.epoch_len in
  let env = Prete.Availability.make_env (Topology.by_name "TWAN") in
  let model =
    Runtime.Internal.build_model Runtime.Hazard_oracle env
      env.Prete.Availability.ts.Tunnels.topo
  in
  let scheme = Prete.Schemes.prete_default ~predictor:model () in
  let demands =
    Traffic.demand env.Prete.Availability.traffic
      ~scale:Runtime.default_config.Runtime.scale
      ~epoch:env.Prete.Availability.epoch
  in
  List.iter
    (fun seed ->
      let epochs = 12 in
      let cfg =
        {
          Runtime.default_config with
          Runtime.topology = "TWAN";
          epochs;
          seed;
          predictor = Runtime.Hazard_oracle;
        }
      in
      let r = run_at ~domains:1 ~shards:1 cfg in
      let what = Printf.sprintf "seed %d" seed in
      Alcotest.(check bool) (what ^ ": alarms") true (r.Shard.s_alarms > 0);
      let samples =
        Array.map (Sim.sample_epoch env) (Sim.epoch_streams ~seed ~epochs)
      in
      let instant = Array.map (fun s -> s.Sim.es_state) samples in
      let epoch_cuts = Array.map (fun s -> s.Sim.es_cuts) samples in
      let installed e fb =
        List.fold_left
          (fun acc (d : Runtime.detection) ->
            if d.Runtime.d_epoch = e && d.Runtime.d_fiber = fb then
              match d.Runtime.d_install with
              | Some i ->
                let deadline =
                  match d.Runtime.d_cut with
                  | Some c -> c - 1
                  | None -> (e * epoch_len) + epoch_len - 1
                in
                i <= deadline
              | None -> acc
            else acc)
          false r.Shard.s_detections
      in
      let stream =
        Array.mapi
          (fun e s ->
            match s with Some fb when installed e fb -> s | _ -> None)
          instant
      in
      let fresh state =
        Prete_exec.Pool.with_pool ~domains:1 (fun pool ->
            Sim.eval_epochs pool env scheme ~demands ~state ~epoch_cuts)
      in
      List.iter
        (fun (name, state, shared) ->
          Alcotest.(check int64)
            (Printf.sprintf "%s: %s availability" what name)
            (Int64.bits_of_float (fresh state))
            (Int64.bits_of_float shared))
        [
          ("stream", stream, r.Shard.s_avail_stream);
          ("periodic", Array.make epochs None, r.Shard.s_avail_periodic);
          ("instant", instant, r.Shard.s_avail_instant);
        ])
    (* Seed 24 alarms twice at availability 1; the other two are the
       benchmark's seed-1 windows 2 and 4, where the degraded plans cost
       availability and window 2's periodic policy differs from the
       other two. *)
    [ 24; 379536661; 644339031 ]

(* A window run with no env reuses the env its domain built last for
   the same topology and traffic, with that env's memo of cold plans.
   Its core must not depend on that: a window's core is the same run
   first on a fresh domain (nothing to reuse), after a window on
   another topology (the env is rebuilt) and after itself (every plan
   is a memo hit).  The pool is the default one, so CI's
   [PRETE_DOMAINS] legs run this at 1 and 4 domains. *)
let window =
  { Runtime.default_config with Runtime.topology = "TWAN"; epochs = 12; seed = 379536661 }

let test_env_reuse_keeps_cores () =
  let core cfg = Shard.deterministic_core (Shard.run cfg) in
  let first = Domain.join (Domain.spawn (fun () -> core window)) in
  ignore (Shard.run { window with Runtime.topology = "grid3"; epochs = 2 });
  let after_other = core window in
  let _, env, _, _ = Runtime.Internal.traffic window in
  let after_itself = core window in
  let _, env', _, _ = Runtime.Internal.traffic window in
  Alcotest.(check bool) "the repeat reused the env" true (env == env');
  Alcotest.(check string) "after another topology" first after_other;
  Alcotest.(check string) "after itself" first after_itself

(* Windows share the memo's plans, so no run may write into one: with
   every state's plan stored, each plan is still stored, with the same
   bits, after a window, whose detour tier patches the standing plan. *)
let test_memo_plans_unmutated () =
  let module A = Prete.Availability in
  ignore (Shard.run window);
  let _, env, demands, _ = Runtime.Internal.traffic window in
  let model =
    Runtime.Internal.build_model Runtime.Hazard_oracle env env.A.ts.Tunnels.topo
  in
  let scheme = Prete.Schemes.prete_default ~predictor:model () in
  let plan (degraded, _) = A.Internal.plan_alloc env scheme ~demands ~degraded in
  let states = A.Internal.degradation_states env in
  (* The window's own plans are hits; the other states' are stored now. *)
  let plans = Array.map plan states in
  let bits = Array.map (fun p -> Array.map Int64.bits_of_float p.A.p_alloc) plans in
  ignore (Shard.run window);
  Array.iteri
    (fun i st ->
      let p = plan st in
      Alcotest.(check bool) (Printf.sprintf "state %d still stored" i) true (p == plans.(i));
      Alcotest.(check (array int64)) (Printf.sprintf "state %d bits" i) bits.(i)
        (Array.map Int64.bits_of_float p.A.p_alloc))
    states

(* What a caller that keeps window results retains per window: 761
   reachable words for this window when the bound was set, 1,355 while
   each metrics registry was six hash tables. *)
let test_result_size () =
  let r = Shard.run window in
  let words = Obj.reachable_words (Obj.repr r) in
  Alcotest.(check bool) (Printf.sprintf "%d reachable words <= 900" words) true (words <= 900)

let () =
  Alcotest.run "prete_rt_shard"
    [
      ( "partition",
        Alcotest.test_case "rejects non-positive shards" `Quick
          test_partition_rejects
        :: qsuite
             [
               prop_partition_covers;
               prop_partition_pure;
               prop_partition_connected;
             ] );
      ( "coalescer",
        [
          Alcotest.test_case "immediate + deferred batching" `Quick
            test_coalescer_immediate_and_deferred;
          Alcotest.test_case "drop-newest sheds the arrival" `Quick
            test_coalescer_drop_newest;
          Alcotest.test_case "drop-oldest evicts the head" `Quick
            test_coalescer_drop_oldest;
          Alcotest.test_case "bound zero sheds every waiter" `Quick
            test_coalescer_bound_zero;
        ] );
      ( "engine",
        [
          Alcotest.test_case "core invariant across shards x domains" `Quick
            test_shard_count_invariance;
          Alcotest.test_case "accounting identity + ring" `Quick
            test_shard_accounting_and_ring;
          Alcotest.test_case "dump/replay roundtrip" `Quick test_shard_replay;
          Alcotest.test_case "shedding is partition-invariant" `Quick
            test_shed_partition_invariant;
          Alcotest.test_case "golden TWAN ingest at 1 and 4 shards" `Quick
            test_golden_twan;
          Alcotest.test_case "shared plan table == fresh tables" `Quick
            test_shared_plan_table;
          Alcotest.test_case "dump written by an earlier build replays" `Quick
            test_shard_fixture_replays;
          Alcotest.test_case "env reuse keeps cores" `Quick test_env_reuse_keeps_cores;
          Alcotest.test_case "memo plans never mutated" `Quick test_memo_plans_unmutated;
          Alcotest.test_case "retained result size" `Quick test_result_size;
        ] );
    ]
