open Prete_net
open Prete_optics
open Prete

type predictor_kind = Hazard_oracle | Prior_only | Nn of int

let predictor_kind_name = function
  | Hazard_oracle -> "hazard"
  | Prior_only -> "prior"
  | Nn n -> Printf.sprintf "nn:%d" n

let predictor_kind_of_string s =
  match s with
  | "hazard" -> Hazard_oracle
  | "prior" -> Prior_only
  | _ ->
    (match String.index_opt s ':' with
    | Some i when String.sub s 0 i = "nn" -> (
      let rest = String.sub s (i + 1) (String.length s - i - 1) in
      match int_of_string_opt rest with
      | Some n when n > 0 -> Nn n
      | _ -> failwith ("Runtime.predictor_kind_of_string: " ^ s))
    | _ -> failwith ("Runtime.predictor_kind_of_string: " ^ s))

type shed_policy = Drop_newest | Drop_oldest

let shed_policy_name = function
  | Drop_newest -> "drop-newest"
  | Drop_oldest -> "drop-oldest"

let shed_policy_of_string = function
  | "drop-newest" -> Drop_newest
  | "drop-oldest" -> Drop_oldest
  | s -> failwith ("Runtime.shed_policy_of_string: " ^ s)

type retrain = {
  rt_every : int;
  rt_steps : int;
  rt_pairs : int;
  rt_min_events : int;
}

let default_retrain = { rt_every = 10; rt_steps = 2; rt_pairs = 2; rt_min_events = 1 }

type config = {
  topology : string;
  traffic : string;
  epochs : int;
  seed : int;
  scale : float;
  detector : Detector.config;
  impairments : Stream.impairments;
  debounce_s : int;
  deadline_s : float option;
  predictor : predictor_kind;
  stale_after : int option;
  detour : bool;
  ring_capacity : int;
  shards : int;
  queue_bound : int;
  shed_policy : shed_policy;
  retrain : retrain option;
}

let default_config =
  {
    topology = "B4";
    traffic = "fixed";
    epochs = 40;
    seed = 123;
    scale = 2.0;
    detector = Detector.default_config;
    impairments = Stream.default_impairments;
    debounce_s = 30;
    deadline_s = None;
    predictor = Hazard_oracle;
    stale_after = None;
    detour = true;
    ring_capacity = 4096;
    shards = 1;
    queue_bound = 64;
    shed_policy = Drop_newest;
    retrain = None;
  }

type detection = {
  d_epoch : int;
  d_fiber : int;
  d_onset : int;
  d_alarm : int;
  d_install : int option;
  d_prob : float;
  d_fallback : bool;
  d_cut : int option;
}

(* ------------------------------------------------------------------ *)
(* Predictor construction                                              *)
(* ------------------------------------------------------------------ *)

let build_model kind (env : Availability.env) topo =
  match kind with
  | Hazard_oracle ->
    let nf = Topology.num_fibers topo in
    fun f -> Hazard.eval ~num_fibers:nf f
  | Prior_only -> Predictor.prior env.Availability.model
  | Nn train_epochs ->
    let ds = Dataset.generate ~model:env.Availability.model topo in
    let corpus = Prete_ml.Corpus.of_dataset ds in
    let mlp =
      Prete_ml.Mlp.train
        ~config:{ Prete_ml.Mlp.default_config with epochs = train_epochs }
        corpus.Prete_ml.Corpus.train
    in
    Prete_ml.Mlp.predict_proba mlp

(* ------------------------------------------------------------------ *)
(* Traffic and env                                                     *)
(* ------------------------------------------------------------------ *)

let traffic_model spec topo =
  match spec with
  | "fixed" -> None
  | spec -> Some (Traffic_model.by_name spec topo)

(* The last default env built on this domain, with its traffic model,
   keyed by (topology name, traffic spec).  Both are pure functions of
   that pair, so a later run on the same pair reuses them, and with them
   the env's memos of rerouted tunnel sets and cold PreTE plans. *)
let last_env :
    (string * string * Traffic_model.t option * Availability.env) option ref
    Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let default_env cfg =
  let last = Domain.DLS.get last_env in
  match !last with
  | Some (topology, traffic, tm, env)
    when String.equal topology cfg.topology && String.equal traffic cfg.traffic ->
    (tm, env)
  | _ ->
    let topo = Topology.by_name cfg.topology in
    let tm = traffic_model cfg.traffic topo in
    let env =
      match tm with
      | None -> Availability.make_env topo
      | Some m ->
        Availability.make_env
          ~traffic:(Traffic_model.to_traffic m)
          ~tunnels:(Tunnels.build topo m.Traffic_model.tm_pairs)
          topo
    in
    last := Some (cfg.topology, cfg.traffic, tm, env);
    (tm, env)

(* The traffic source — the legacy fixed matrix set ("fixed") or a
   seeded generated model whose demand sequence varies per epoch — and
   the env it plans over. *)
let traffic ?env cfg =
  let tm, env =
    match env with
    | Some e -> (traffic_model cfg.traffic e.Availability.ts.Tunnels.topo, e)
    | None -> default_env cfg
  in
  (match tm with
  | Some m
    when Traffic_model.num_flows m <> Array.length env.Availability.ts.Tunnels.flows ->
    invalid_arg "Shard.run: env tunnels do not match the traffic model"
  | _ -> ());
  let demands =
    Traffic.demand env.Availability.traffic ~scale:cfg.scale
      ~epoch:env.Availability.epoch
  in
  let demands_at e =
    match tm with
    | None -> demands
    | Some m -> Traffic_model.demands m ~scale:cfg.scale ~epoch:e
  in
  (tm, env, demands, demands_at)

(* The messages name the [prete_cli stream] flag that sets each field,
   so a flag and a dumped config out of range read the same. *)
let check_config c =
  let bad fmt = Printf.ksprintf invalid_arg fmt in
  let positive flag n = if n <= 0 then bad "%s must be positive (got %d)" flag n in
  let nonneg flag n = if n < 0 then bad "%s must be non-negative (got %d)" flag n in
  (* NaN fails the comparison, so it is rejected too. *)
  let nonneg_float flag x = if not (x >= 0.0) then bad "%s must be non-negative (got %g)" flag x in
  positive "--epochs" c.epochs;
  nonneg_float "--scale" c.scale;
  nonneg "--queue-bound" c.queue_bound;
  Detector.check_config c.detector;
  nonneg "--debounce" c.debounce_s;
  Option.iter (nonneg_float "--deadline") c.deadline_s;
  Option.iter (nonneg "--stale-after") c.stale_after;
  Option.iter
    (fun r ->
      nonneg "--retrain-every" r.rt_every;
      (* Only an armed loop reads the rest. *)
      if r.rt_every > 0 then begin
        nonneg "--retrain-steps" r.rt_steps;
        positive "--retrain-pairs" r.rt_pairs;
        nonneg "--retrain-min-events" r.rt_min_events
      end)
    c.retrain;
  positive "--shards" c.shards;
  positive "ring_capacity" c.ring_capacity;
  let topo = Topology.by_name c.topology in
  if c.traffic <> "fixed" then ignore (Traffic_model.by_name c.traffic topo);
  Stream.check_impairments c.impairments

(* ------------------------------------------------------------------ *)
(* Dump config                                                         *)
(* ------------------------------------------------------------------ *)

module J = Prete_util.Json

let config_to_json (c : config) =
  let d = c.detector and imp = c.impairments and str s = J.String s in
  (* Flat retrain fields; retrain_every 0 (or, in older dumps, all four
     missing) means online retraining is off. *)
  let rc = Option.value ~default:{ rt_every = 0; rt_steps = 0; rt_pairs = 0; rt_min_events = 0 } c.retrain in
  J.Object
    [ ("topology", str c.topology); ("traffic", str c.traffic); ("epochs", J.int c.epochs);
      ("seed", J.int c.seed); ("scale", J.float c.scale);
      ("ewma_alpha", J.float d.Detector.ewma_alpha); ("cusum_k", J.float d.Detector.cusum_k);
      ("cusum_h", J.float d.Detector.cusum_h);
      ("fluct_threshold", J.float d.Detector.fluct_threshold);
      ("degr_threshold", J.float d.Detector.degr_threshold);
      ("cut_threshold", J.float d.Detector.cut_threshold);
      ("gap_rate", J.float imp.Stream.gap_rate); ("dup_rate", J.float imp.Stream.dup_rate);
      ("reorder_rate", J.float imp.Stream.reorder_rate);
      ("max_delay", J.int imp.Stream.max_delay); ("debounce_s", J.int c.debounce_s);
      ("deadline_s", J.option J.float c.deadline_s);
      ("predictor", str (predictor_kind_name c.predictor));
      ("stale_after", J.option J.int c.stale_after); ("detour", J.Bool c.detour);
      ("ring_capacity", J.int c.ring_capacity); ("shards", J.int c.shards);
      ("queue_bound", J.int c.queue_bound); ("shed_policy", str (shed_policy_name c.shed_policy));
      ("retrain_every", J.int rc.rt_every); ("retrain_steps", J.int rc.rt_steps);
      ("retrain_pairs", J.int rc.rt_pairs); ("retrain_min_events", J.int rc.rt_min_events);
      ("lp_engine", str "lu") ]

exception Bad_field of string

let config_of_dump dump =
  let bad fmt = Printf.ksprintf (fun m -> raise (Bad_field m)) fmt in
  let read () =
    let c =
      match J.member "config" dump with
      | Some (J.Object _ as c) -> c
      | _ -> bad "not a stream dump (no config section)"
    in
    (* [opt] reads a field older dumps may lack, [req] one they all carry. *)
    let opt key (conv, what) =
      Option.map
        (fun v ->
          match conv v with
          | Some x -> x
          | None -> bad "config: %s must be %s (got %s)" key what (J.to_string v))
        (J.member key c)
    in
    let req key kind = match opt key kind with Some x -> x | None -> bad "config: missing %s" key in
    let str = (J.as_string, "a string") and num = (J.as_float, "a number") in
    let int = (J.as_int, "an integer") in
    let int_or key d = Option.value ~default:d (opt key int) in
    let nullable (conv, what) =
      ((function J.Null -> Some None | v -> Option.map Option.some (conv v)), what ^ " or null")
    in
    let named key of_string v =
      try of_string v with Failure _ -> bad "config: unknown %s %S" key v
    in
    (* Every run solves with the LU engine.  Dumps predating it carry
       no field and were produced under the retired eta-file engine
       ("revised"), as were dumps that name it; a dump naming the dense
       tableau ran under that engine, now a test-only oracle.  All three
       replay under LU, with a note, since the replayed core may then
       differ from the dumped one. *)
    let note =
      match opt "lp_engine" str with
      | Some "lu" -> None
      | Some "revised" | None ->
        Some "dump predates the LU engine (lp_engine \"revised\" or absent); replaying under lu"
      | Some "dense" ->
        Some "dump ran under the dense engine (lp_engine \"dense\"), now a test oracle; replaying under lu"
      | Some v -> bad "unknown LP engine %s (lu | dense)" v
    in
    let cfg =
      {
        topology = req "topology" str;
        (* Dumps predating the traffic-model library carry no field. *)
        traffic = Option.value ~default:"fixed" (opt "traffic" str);
        epochs = req "epochs" int; seed = req "seed" int; scale = req "scale" num;
        detector =
          { Detector.ewma_alpha = req "ewma_alpha" num; cusum_k = req "cusum_k" num;
            cusum_h = req "cusum_h" num; fluct_threshold = req "fluct_threshold" num;
            degr_threshold = req "degr_threshold" num; cut_threshold = req "cut_threshold" num };
        impairments =
          { Stream.gap_rate = req "gap_rate" num; dup_rate = req "dup_rate" num;
            reorder_rate = req "reorder_rate" num; max_delay = req "max_delay" int };
        debounce_s = req "debounce_s" int;
        deadline_s = req "deadline_s" (nullable num);
        predictor = named "predictor" predictor_kind_of_string (req "predictor" str);
        stale_after = req "stale_after" (nullable int);
        detour = req "detour" (J.as_bool, "a boolean");
        ring_capacity = req "ring_capacity" int;
        (* Dumps predating the sharded runtime carry none of the three. *)
        shards = int_or "shards" 1;
        queue_bound = int_or "queue_bound" default_config.queue_bound;
        shed_policy =
          Option.fold ~none:default_config.shed_policy
            ~some:(named "shed_policy" shed_policy_of_string) (opt "shed_policy" str);
        (* Dumps predating online retraining carry no fields: off. *)
        retrain =
          (match int_or "retrain_every" 0 with
          | 0 -> None
          | every ->
            let d = default_retrain in
            Some
              { rt_every = every; rt_steps = int_or "retrain_steps" d.rt_steps;
                rt_pairs = int_or "retrain_pairs" d.rt_pairs;
                rt_min_events = int_or "retrain_min_events" d.rt_min_events });
      }
    in
    check_config cfg;
    (cfg, note)
  in
  match read () with
  | v -> Ok v
  | exception (Bad_field msg | Invalid_argument msg) -> Error msg

module Internal = struct
  let epoch_len = Fiber.epoch_len
  let build_model = build_model
  let traffic = traffic
end
