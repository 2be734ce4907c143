type t = {
  mutable model : Prete_optics.Hazard.features -> float;
  mutable name : string;
  mutable stale : bool;
  fallback : Prete_optics.Hazard.features -> float;
  mutable served : int;
  mutable fell_back : int;
  mutable swaps : int;
  lock : Mutex.t;
}

let create ?(name = "v0") ~fallback model =
  {
    model;
    name;
    stale = false;
    fallback;
    served = 0;
    fell_back = 0;
    swaps = 0;
    lock = Mutex.create ();
  }

let prior (model : Prete_optics.Fiber_model.t) _feats =
  model.Prete_optics.Fiber_model.mean_hazard

let guarded t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let predict t feats =
  guarded t (fun () ->
      t.served <- t.served + 1;
      if t.stale then begin
        t.fell_back <- t.fell_back + 1;
        (t.fallback feats, true)
      end
      else (t.model feats, false))

let swap t ?name model =
  guarded t (fun () ->
      t.model <- model;
      t.swaps <- t.swaps + 1;
      t.stale <- false;
      match name with
      | Some n -> t.name <- n
      | None -> t.name <- Printf.sprintf "v%d" t.swaps)

let mark_stale t = guarded t (fun () -> t.stale <- true)
let version t = guarded t (fun () -> t.name)
let stats t = guarded t (fun () -> (t.served, t.fell_back, t.swaps))
