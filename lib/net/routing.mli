(** Path computation over {!Topology}.

    Provides the two tunnel-routing algorithms the paper uses (§4.2):
    k-shortest-path routing (Yen's algorithm) and fiber-disjoint routing
    (successive shortest paths with fiber exclusion).  Paths are lists of
    directed link ids from source to destination. *)

type path = int list
(** Directed link ids, in traversal order. *)

val path_nodes : Topology.t -> path -> Topology.node list
(** Nodes visited, source first.  Raises [Invalid_argument] on a
    disconnected or empty link sequence. *)

val path_fibers : Topology.t -> path -> int list
(** Deduplicated fiber ids traversed by the path. *)

val path_length_km : Topology.t -> path -> float

val path_valid : Topology.t -> src:Topology.node -> dst:Topology.node -> path -> bool
(** True when the links chain from [src] to [dst] without repeating a node. *)

val uses_fiber : Topology.t -> path -> int -> bool

val shortest_path :
  Topology.t ->
  ?weight:(Topology.link -> float) ->
  ?forbidden_links:(int -> bool) ->
  ?forbidden_nodes:(Topology.node -> bool) ->
  src:Topology.node ->
  dst:Topology.node ->
  unit ->
  path option
(** Dijkstra.  Default weight is fiber length in km (+ a small hop cost so
    hop count tie-breaks).  [forbidden_*] prune the graph. *)

val k_shortest :
  Topology.t ->
  ?weight:(Topology.link -> float) ->
  k:int ->
  src:Topology.node ->
  dst:Topology.node ->
  unit ->
  path list
(** Yen's k-shortest loopless paths, ascending length; fewer than [k] when
    the graph runs out of distinct paths. *)

val fiber_disjoint :
  Topology.t ->
  ?weight:(Topology.link -> float) ->
  k:int ->
  src:Topology.node ->
  dst:Topology.node ->
  unit ->
  path list
(** Greedy fiber-disjoint paths: each successive shortest path avoids every
    fiber used by the previous ones.  Consecutive results share no fiber
    (hence survive any single cut that kills an earlier one). *)
