(* Dynamic tuning: the system load shifts mid-run (quiet -> rush hour ->
   quiet) and the STL-based selector shifts its protocol mix with it.  This
   is the scenario that motivates dynamic over static concurrency control in
   section 1 of the paper: "the originally chosen algorithm may not always
   be the best as the system parameters change".

   Run with: dune exec examples/dynamic_tuning.exe *)

module Rt = Ccdb_protocols.Runtime
module G = Ccdb_workload.Generator

let phase_txns = 250

let () =
  let sites = 4 and items = 24 in
  let catalog = Ccdb_storage.Catalog.create ~items ~sites ~replication:2 in
  let rt =
    Rt.create ~seed:11 ~net_config:Ccdb_sim.Net.default_config ~catalog ()
  in
  let system = Core.Dynamic_cc.create rt in
  let wl_rng = Ccdb_util.Rng.create ~seed:5 in

  let spec rate = { G.default with arrival_rate = rate; size_min = 1; size_max = 3 } in
  let phases = [ ("quiet", 0.03); ("rush", 0.35); ("quiet again", 0.03) ] in

  (* generate the three phases back to back *)
  let start = ref 0. in
  let schedule = ref [] in
  List.iter
    (fun (name, rate) ->
      let generator = G.create (spec rate) ~sites ~items wl_rng in
      let arrivals = G.generate generator ~n:phase_txns ~start:!start in
      let phase_end = fst (List.nth arrivals (phase_txns - 1)) in
      schedule := (name, !start, phase_end, arrivals) :: !schedule;
      start := phase_end)
    phases;
  let phases = List.rev !schedule in

  (* ids must be globally unique across the phase generators; the phases
     follow each other, so the arrivals are in time order and each is
     drawn when its predecessor fires *)
  let arrivals =
    ref (List.concat_map (fun (_, _, _, arrivals) -> arrivals) phases)
  in
  let next_id = ref 0 in
  Ccdb_sim.Engine.feed (Rt.engine rt) ~n:(List.length !arrivals) (fun () ->
      match !arrivals with
      | [] -> assert false
      | (at, (txn : Ccdb_model.Txn.t)) :: later ->
        arrivals := later;
        incr next_id;
        let txn =
          Ccdb_model.Txn.make ~id:!next_id ~site:txn.site
            ~read_set:txn.read_set ~write_set:txn.write_set
            ~compute_time:txn.compute_time ~protocol:txn.protocol
        in
        (at, fun () -> Core.Dynamic_cc.submit system txn));
  (* per phase, by submission time: the sum of S and the commits of each
     protocol, folded in as transactions commit *)
  let sums = Array.make (List.length phases) 0. in
  let mix = Array.make_matrix (List.length phases) 3 0 in
  Rt.subscribe rt (function
    | Rt.Txn_committed { txn; submitted_at; executed_at; _ } ->
      List.iteri
        (fun i (_, t0, t1, _) ->
          if submitted_at >= t0 && submitted_at < t1 then begin
            sums.(i) <- sums.(i) +. executed_at -. submitted_at;
            let p = Ccdb_model.Protocol.rank txn.protocol in
            mix.(i).(p) <- mix.(i).(p) + 1
          end)
        phases
    | _ -> ());
  Rt.quiesce ~max_events:50_000_000 rt;

  (* report per phase: mean S and the protocol mix the selector chose *)
  Format.printf "%-12s %8s  %s@." "phase" "mean S" "protocol mix chosen";
  List.iteri
    (fun i (name, _, _, _) ->
      let n = Array.fold_left ( + ) 0 mix.(i) in
      let mean = if n = 0 then Float.nan else sums.(i) /. float_of_int n in
      Format.printf "%-12s %8.1f  2PL:%d T/O:%d PA:%d@." name mean
        mix.(i).(0) mix.(i).(1) mix.(i).(2))
    phases;
  Format.printf "all %d committed, serializable: %b@."
    (Rt.counters rt).committed
    (Ccdb_serial.Check.conflict_serializable
       (Ccdb_storage.Store.logs (Rt.store rt)))
