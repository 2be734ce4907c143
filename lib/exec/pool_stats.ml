type t = {
  domains : int;
  jobs : int;
  tasks : int;
  steals : int;
  inline_jobs : int;
  busy_s : float array;
}

let busy_total t = Array.fold_left ( +. ) 0.0 t.busy_s

let to_json t =
  let module J = Prete_util.Json in
  J.Object
    [ ("domains", J.int t.domains); ("jobs", J.int t.jobs); ("tasks", J.int t.tasks);
      ("steals", J.int t.steals); ("inline_jobs", J.int t.inline_jobs);
      ("busy_s", J.Array (Array.to_list (Array.map (J.fixed 6) t.busy_s)));
      ("busy_total_s", J.fixed 6 (busy_total t)) ]

let pp ppf t =
  Format.fprintf ppf "domains=%d jobs=%d tasks=%d steals=%d inline=%d busy=%.3fs"
    t.domains t.jobs t.tasks t.steals t.inline_jobs (busy_total t)
