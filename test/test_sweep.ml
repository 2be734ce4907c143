(* Sweep portfolio: bit-identical JSON at any domain count, plus a
   schema regression pin so downstream consumers can rely on the cell
   grid shape and key set. *)

module Sweep = Prete_rt.Sweep

let topologies = [ "grid3"; "grid4" ]
let traffic = [ "gravity"; "coremelt" ]
let profs = [ "clean" ]

let run_at ~domains =
  Prete_exec.Pool.with_pool ~domains (fun pool ->
      Sweep.run ~pool ~seed:5 ~epochs:6 ~scale:2.0 ~topologies ~traffic
        ~profiles:profs ())

(* The schema/grid/ordering tests all inspect the same portfolio; run
   the matrix once for them. *)
let portfolio2 = lazy (run_at ~domains:2)

let count_substring hay needle =
  let nl = String.length needle and hl = String.length hay in
  let n = ref 0 in
  for i = 0 to hl - nl do
    if String.sub hay i nl = needle then incr n
  done;
  !n

let test_bit_identical_across_domains () =
  let j1 = Prete_util.Json.to_string (Sweep.to_json (run_at ~domains:1)) in
  let j4 = Prete_util.Json.to_string (Sweep.to_json (run_at ~domains:4)) in
  Alcotest.(check string) "portfolio JSON identical at 1 vs 4 domains" j1 j4

let test_schema () =
  let p = Lazy.force portfolio2 in
  let json = Prete_util.Json.to_string (Sweep.to_json p) in
  let cells = 2 * 2 * 1 * List.length Sweep.policies in
  Alcotest.(check int) "cell count" cells (List.length p.Sweep.pt_cells);
  Alcotest.(check int) "combo count" (2 * 2 * 1) (List.length p.Sweep.pt_combos);
  Alcotest.(check int)
    "one policy key per cell" cells
    (count_substring json "\"policy\":");
  (* Every serialized key downstream consumers bind to, pinned. *)
  List.iter
    (fun key ->
      Alcotest.(check bool) ("has " ^ key) true (count_substring json key > 0))
    [
      "\"prete_sweep\": 1";
      "\"seed\": 5";
      "\"epochs\": 6";
      "\"matrix\":";
      "\"topologies\":";
      "\"traffic\":";
      "\"profiles\":";
      "\"policies\":";
      "\"cells\":";
      "\"combos\":";
      "\"phi\":";
      "\"availability\":";
      "\"nines\":";
      "\"flows\":";
      "\"degr_epochs\":";
      "\"cut_epochs\":";
      "\"detections\":";
      "\"reacted_in_time\":";
      "\"missed\":";
      "\"alarms\":";
      "\"reactions\":";
      "\"rungs\":";
      "\"detour\":";
      "\"activations\":";
      "\"rescued_epochs\":";
      "\"flows_patched\":";
      "\"solver\":";
      "\"solves\":";
      "\"warm_solves\":";
      "\"pivots\":";
      "\"cache_hits\":";
      "\"cache_misses\":";
    ];
  Alcotest.(check int) "no nulls" 0 (count_substring json "null");
  (* Every ladder rung appears in every combo, even when untaken. *)
  List.iter
    (fun rung ->
      Alcotest.(check int)
        ("rung " ^ rung ^ " in every combo")
        (List.length p.Sweep.pt_combos)
        (count_substring json ("\"" ^ rung ^ "\":")))
    [ "equal-split" ]

let test_cell_grid_complete () =
  let p = Lazy.force portfolio2 in
  List.iter
    (fun topo ->
      List.iter
        (fun tr ->
          List.iter
            (fun pf ->
              List.iter
                (fun policy ->
                  let hit =
                    List.exists
                      (fun (c : Sweep.cell) ->
                        c.Sweep.cl_topology = topo && c.Sweep.cl_traffic = tr
                        && c.Sweep.cl_profile = pf && c.Sweep.cl_policy = policy)
                      p.Sweep.pt_cells
                  in
                  Alcotest.(check bool)
                    (Printf.sprintf "cell %s/%s/%s/%s present" topo tr pf policy)
                    true hit)
                Sweep.policies)
            profs)
        traffic)
    topologies;
  List.iter
    (fun (c : Sweep.cell) ->
      Alcotest.(check bool)
        "availability in [0,1]" true
        (c.Sweep.cl_availability >= 0.0 && c.Sweep.cl_availability <= 1.0);
      Alcotest.(check bool) "phi in [0,1]" true
        (c.Sweep.cl_phi >= 0.0 && c.Sweep.cl_phi <= 1.0))
    p.Sweep.pt_cells

let test_detour_no_worse_than_stream () =
  let p = Lazy.force portfolio2 in
  let find policy topo tr pf =
    (List.find
       (fun (c : Sweep.cell) ->
         c.Sweep.cl_topology = topo && c.Sweep.cl_traffic = tr
         && c.Sweep.cl_profile = pf && c.Sweep.cl_policy = policy)
       p.Sweep.pt_cells)
      .Sweep.cl_availability
  in
  List.iter
    (fun topo ->
      List.iter
        (fun tr ->
          List.iter
            (fun pf ->
              Alcotest.(check bool)
                (Printf.sprintf "detour >= stream on %s/%s/%s" topo tr pf)
                true
                (find "stream+detour" topo tr pf >= find "stream" topo tr pf -. 1e-9))
            profs)
        traffic)
    topologies

let test_unknown_axis_entries_rejected () =
  List.iter
    (fun (msg, f) -> Alcotest.(check bool) msg true (match f () with
       | (_ : Sweep.portfolio) -> false
       | exception Invalid_argument _ -> true))
    [
      ( "unknown profile",
        fun () ->
          Sweep.run ~seed:5 ~epochs:2 ~topologies:[ "grid3" ]
            ~traffic:[ "gravity" ] ~profiles:[ "nope" ] () );
      ( "empty axis",
        fun () ->
          Sweep.run ~seed:5 ~epochs:2 ~topologies:[] ~traffic:[ "gravity" ]
            ~profiles:[ "clean" ] () );
      ( "unknown traffic",
        fun () ->
          Sweep.run ~seed:5 ~epochs:2 ~topologies:[ "grid3" ]
            ~traffic:[ "bursty" ] ~profiles:[ "clean" ] () );
    ]

let () =
  Alcotest.run "prete_sweep"
    [
      ( "sweep",
        [
          Alcotest.test_case "bit-identical across domain counts" `Quick
            test_bit_identical_across_domains;
          Alcotest.test_case "schema pinned" `Quick test_schema;
          Alcotest.test_case "cell grid complete" `Quick test_cell_grid_complete;
          Alcotest.test_case "detour no worse than stream" `Quick
            test_detour_no_worse_than_stream;
          Alcotest.test_case "bad axis entries rejected" `Quick
            test_unknown_axis_entries_rejected;
        ] );
    ]
