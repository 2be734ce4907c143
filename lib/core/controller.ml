type stage = Detection | Inference | Tunnel_update | Scenario_regen | Te_compute

let stage_name = function
  | Detection -> "detection"
  | Inference -> "NN inference"
  | Tunnel_update -> "tunnel update"
  | Scenario_regen -> "scenario regeneration"
  | Te_compute -> "TE computation"

type timing = { stage : stage; start_s : float; duration_s : float }

type note = {
  note_stage : stage;
  label : string;
  detail : string;
  tries : int;
  backoff_s : float;
}

type report = {
  timeline : timing list;
  end_to_end_s : float;
  notes : note list;
  solver : Prete_lp.Solver_stats.t option;
}

let per_tunnel_setup_s = 0.25

let detection_s = 0.05

let tunnel_update_time n =
  if n < 0 then invalid_arg "Controller.tunnel_update_time: negative count";
  float_of_int n *. per_tunnel_setup_s

let per_member_handling_s = 0.002

let batch_latency ~members ~n_new_tunnels =
  if members <= 0 then invalid_arg "Controller.batch_latency: empty batch";
  detection_s
  +. (per_member_handling_s *. float_of_int members)
  +. 0.010 +. 0.25
  +. tunnel_update_time n_new_tunnels

let wall f =
  let t0 = Prete_util.Clock.now () in
  let result = f () in
  (result, Prete_util.Clock.elapsed_since t0)

let run ?solver_stats ~infer ~regen ~te ~n_new_tunnels () =
  if n_new_tunnels < 0 then invalid_arg "Controller.run: negative tunnel count";
  let (), infer_s = wall infer in
  let update_s = tunnel_update_time n_new_tunnels in
  let (), regen_s = wall regen in
  let te_result, te_s = wall te in
  let stages =
    [
      (Detection, detection_s);
      (Inference, infer_s);
      (Tunnel_update, update_s);
      (Scenario_regen, regen_s);
      (Te_compute, te_s);
    ]
  in
  let _, timeline =
    List.fold_left
      (fun (t, acc) (stage, duration_s) ->
        (t +. duration_s, { stage; start_s = t; duration_s } :: acc))
      (0.0, []) stages
  in
  let timeline = List.rev timeline in
  let end_to_end_s =
    List.fold_left (fun acc t -> acc +. t.duration_s) 0.0 timeline
  in
  (match solver_stats with
  | Some st -> Prete_lp.Solver_stats.add_wall st "te_compute" te_s
  | None -> ());
  (te_result, { timeline; end_to_end_s; notes = []; solver = solver_stats })

let with_notes report notes = { report with notes = report.notes @ notes }

let within_budget report ~gap_to_cut_s = report.end_to_end_s <= gap_to_cut_s

(* ------------------------------------------------------------------ *)
(* Per-epoch plan cache                                                 *)
(* ------------------------------------------------------------------ *)

type cache_key = int64

(* FNV-1a folded over the structural content.  [Hashtbl.hash] is unusable
   here: it truncates deep/long structures, so two different demand
   vectors could silently collide by design rather than by accident. *)
let fnv_offset = 0xcbf29ce484222325L
let fnv_prime = 0x100000001b3L
let mix h x = Int64.mul (Int64.logxor h (Int64.of_int x)) fnv_prime
let mix_f h x = Int64.mul (Int64.logxor h (Int64.bits_of_float x)) fnv_prime

let plan_key ~ts ~demands ?classes ?probs ?(salt = []) () =
  let h = ref fnv_offset in
  let add x = h := mix !h x in
  let addf x = h := mix_f !h x in
  let open Prete_net in
  add (Array.length ts.Tunnels.flows);
  Array.iter
    (fun (f : Tunnels.flow) ->
      add f.Tunnels.flow_id;
      add f.Tunnels.src;
      add f.Tunnels.dst)
    ts.Tunnels.flows;
  add (Array.length ts.Tunnels.tunnels);
  Array.iter
    (fun (tn : Tunnels.tunnel) ->
      add tn.Tunnels.tunnel_id;
      add tn.Tunnels.owner;
      List.iter add tn.Tunnels.links;
      add (-1))
    ts.Tunnels.tunnels;
  add (Array.length demands);
  Array.iter addf demands;
  (match classes with
  | None -> add (-2)
  | Some classes ->
    add (Array.length classes);
    Array.iter
      (fun cls ->
        add (Array.length cls);
        Array.iter
          (fun (c : Scenario.Classes.cls) ->
            List.iter add c.Scenario.Classes.survivors;
            add (-3);
            addf c.Scenario.Classes.prob)
          cls)
      classes);
  (match probs with
  | None -> add (-4)
  | Some probs ->
    add (Array.length probs);
    Array.iter addf probs);
  List.iter add salt;
  !h

type 'p cache = {
  table : (cache_key, 'p) Hashtbl.t;
  order : cache_key Queue.t;  (* FIFO eviction *)
  capacity : int;
  mutable hits : int;
  mutable misses : int;
  cache_lock : Mutex.t;
      (* Hashtbl + Queue + counters move together; the lock keeps the
         structure coherent when epochs are sharded across domains. *)
}

let cache ?(capacity = 64) () =
  if capacity <= 0 then invalid_arg "Controller.cache: capacity must be positive";
  {
    table = Hashtbl.create capacity;
    order = Queue.create ();
    capacity;
    hits = 0;
    misses = 0;
    cache_lock = Mutex.create ();
  }

let cache_guarded c f =
  Mutex.lock c.cache_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock c.cache_lock) f

let cache_find c key =
  cache_guarded c (fun () ->
      match Hashtbl.find_opt c.table key with
      | Some plan ->
        c.hits <- c.hits + 1;
        Some plan
      | None ->
        c.misses <- c.misses + 1;
        None)

let cache_store c key ~degraded plan =
  (* Degraded plans are deadline truncations, not optima for the keyed
     inputs — caching one would pin a bad plan on every identical future
     epoch, so they are never stored. *)
  if not degraded then
    cache_guarded c (fun () ->
        if not (Hashtbl.mem c.table key) then begin
          Queue.push key c.order;
          if Queue.length c.order > c.capacity then begin
            let victim = Queue.pop c.order in
            Hashtbl.remove c.table victim
          end
        end;
        Hashtbl.replace c.table key plan)

let cache_stats c = cache_guarded c (fun () -> (c.hits, c.misses))
