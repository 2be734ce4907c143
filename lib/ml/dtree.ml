open Prete_optics

type config = { max_depth : int; min_samples_leaf : int; max_thresholds : int }

let default_config = { max_depth = 8; min_samples_leaf = 5; max_thresholds = 32 }

type node =
  | Leaf of float  (* positive fraction *)
  | Split of { feature : int; threshold : float; left : node; right : node }

type t = node

let num_features = 9

let vector (f : Hazard.features) =
  [|
    f.Hazard.degree;
    f.Hazard.gradient;
    float_of_int f.Hazard.fluctuation;
    f.Hazard.length_km;
    f.Hazard.duration_s;
    f.Hazard.time_of_day;
    float_of_int f.Hazard.fiber;
    float_of_int f.Hazard.region;
    float_of_int f.Hazard.vendor;
  |]

let positive_fraction rows =
  let n = Array.length rows in
  if n = 0 then 0.0
  else
    float_of_int (Array.fold_left (fun a (_, l) -> if l then a + 1 else a) 0 rows)
    /. float_of_int n

(* Gini impurity of a (count, positives) split side. *)
let gini n pos =
  if n = 0 then 0.0
  else
    let p = float_of_int pos /. float_of_int n in
    2.0 *. p *. (1.0 -. p)

let train ?(config = default_config) examples =
  if Array.length examples = 0 then invalid_arg "Dtree.train: empty training set";
  let rows =
    Array.map (fun (e : Corpus.example) -> (vector e.Corpus.features, e.Corpus.label)) examples
  in
  let rec grow rows depth =
    let n = Array.length rows in
    let pf = positive_fraction rows in
    if depth >= config.max_depth || n < 2 * config.min_samples_leaf || pf = 0.0 || pf = 1.0
    then Leaf pf
    else begin
      (* Best split across features and candidate thresholds. *)
      let best = ref None in
      for f = 0 to num_features - 1 do
        let values = Array.map (fun (v, _) -> v.(f)) rows in
        let sorted = Array.copy values in
        Array.sort compare sorted;
        let candidates =
          let k = min config.max_thresholds (n - 1) in
          List.sort_uniq compare
            (List.init k (fun i ->
                 let idx = (i + 1) * n / (k + 1) in
                 let idx = max 1 (min (n - 1) idx) in
                 0.5 *. (sorted.(idx - 1) +. sorted.(idx))))
        in
        List.iter
          (fun thr ->
            let ln = ref 0 and lp = ref 0 and rn = ref 0 and rp = ref 0 in
            Array.iter
              (fun (v, l) ->
                if v.(f) <= thr then begin
                  incr ln;
                  if l then incr lp
                end
                else begin
                  incr rn;
                  if l then incr rp
                end)
              rows;
            if !ln >= config.min_samples_leaf && !rn >= config.min_samples_leaf then begin
              let score =
                (float_of_int !ln *. gini !ln !lp +. (float_of_int !rn *. gini !rn !rp))
                /. float_of_int n
              in
              match !best with
              | Some (s, _, _) when s <= score -> ()
              | _ -> best := Some (score, f, thr)
            end)
          candidates
      done;
      match !best with
      | None -> Leaf pf
      | Some (score, f, thr) ->
        let parent = gini n (int_of_float (pf *. float_of_int n +. 0.5)) in
        if score >= parent -. 1e-9 then Leaf pf
        else begin
          let left = Array.of_list (List.filter (fun (v, _) -> v.(f) <= thr) (Array.to_list rows)) in
          let right = Array.of_list (List.filter (fun (v, _) -> v.(f) > thr) (Array.to_list rows)) in
          Split
            {
              feature = f;
              threshold = thr;
              left = grow left (depth + 1);
              right = grow right (depth + 1);
            }
        end
    end
  in
  grow rows 0

let rec predict_node node v =
  match node with
  | Leaf p -> p
  | Split { feature; threshold; left; right } ->
    if v.(feature) <= threshold then predict_node left v else predict_node right v

let predict_proba t f = predict_node t (vector f)

let predict_label t f = predict_proba t f >= 0.5

let rec depth = function
  | Leaf _ -> 0
  | Split { left; right; _ } -> 1 + max (depth left) (depth right)

let rec num_leaves = function
  | Leaf _ -> 1
  | Split { left; right; _ } -> num_leaves left + num_leaves right
