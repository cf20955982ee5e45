type detection =
  | Centralized of { interval : float }
  | Edge_chasing of { probe_delay : float }

let default_detection = Centralized { interval = 100. }

(* where the centralized detector runs *)
let detector_site = 0

type victim_choice = int list -> int option

let youngest = function
  | [] -> None
  | cycle -> Some (List.fold_left Int.max min_int cycle)

type t = {
  engine : Ccdb_sim.Engine.t;
  net : Ccdb_sim.Net.t;
  interval : float;
  edges : (int -> int -> unit) -> unit;
  graph : Ccdb_serial.Conflict_graph.Builder.t;  (* reused by every scan *)
  choose_victim : victim_choice;
  victim_site : int -> int option;
  abort : int -> unit;
  mutable running : bool;
  mutable pending : Ccdb_sim.Engine.handle; (* -1 if no tick is queued *)
  mutable scans : int;
  mutable cycles_found : int;
}

let create_centralized ~engine ~net ~interval ~edges ~choose_victim
    ~victim_site ~abort =
  (* negated so that a NaN interval is refused too *)
  if not (interval > 0.) then invalid_arg "Deadlock: interval must be positive";
  { engine; net; interval; edges;
    graph = Ccdb_serial.Conflict_graph.Builder.create (); choose_victim;
    victim_site; abort; running = false; pending = -1; scans = 0;
    cycles_found = 0 }

(* One victim per scan: abort it, then let the next scan deal with any
   remaining cycles (matching the conservative behaviour of periodic
   detectors). *)
let scan t =
  t.scans <- t.scans + 1;
  (* each site reports its local wait-for edges to the detector site *)
  let sites = Ccdb_sim.Net.sites t.net in
  for site = 0 to sites - 1 do
    if site <> detector_site then
      Ccdb_sim.Net.send t.net ~src:site ~dst:detector_site ~kind:"wfg-report"
        (fun () -> ())
  done;
  let module B = Ccdb_serial.Conflict_graph.Builder in
  B.clear t.graph;
  t.edges (B.add t.graph);
  match Ccdb_serial.Conflict_graph.find_cycle (B.graph t.graph) with
  | None -> ()
  | Some cycle ->
    t.cycles_found <- t.cycles_found + 1;
    (match t.choose_victim cycle with
     | None -> ()
     | Some victim ->
       (match t.victim_site victim with
        | None -> ()
        | Some site ->
          Ccdb_sim.Net.send t.net ~src:detector_site ~dst:site ~kind:"abort"
            (fun () -> t.abort victim)))

let rec tick t =
  t.pending <- -1;
  if t.running then begin
    scan t;
    t.pending <-
      Ccdb_sim.Engine.schedule t.engine ~after:t.interval (fun () -> tick t)
  end

let start t =
  if not t.running then begin
    t.running <- true;
    (* exactly one tick chain: a stale pending tick would double the scan
       rate (and with stale wait-for snapshots, double-abort both members
       of a cycle — a victim-churn livelock found by randomized testing) *)
    ignore (Ccdb_sim.Engine.cancel t.engine t.pending);
    t.pending <-
      Ccdb_sim.Engine.schedule t.engine ~after:t.interval (fun () -> tick t)
  end

let stop t =
  t.running <- false;
  ignore (Ccdb_sim.Engine.cancel t.engine t.pending);
  t.pending <- -1

let scans t = t.scans
let cycles_found t = t.cycles_found
