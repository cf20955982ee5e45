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
    Rt.create ~seed:11 ~net_config:(Ccdb_sim.Net.default_config ~sites)
      ~catalog ()
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

  (* ids must be globally unique across the phase generators *)
  let arrivals =
    List.concat_map (fun (_, _, _, arrivals) -> arrivals) phases
  in
  Ccdb_sim.Engine.schedule_all (Rt.engine rt)
    (List.mapi
       (fun i (at, txn) ->
         let txn =
           Ccdb_model.Txn.make ~id:(i + 1) ~site:txn.Ccdb_model.Txn.site
             ~read_set:txn.read_set ~write_set:txn.write_set
             ~compute_time:txn.compute_time ~protocol:txn.protocol
         in
         (at, fun () -> Core.Dynamic_cc.submit system txn))
       arrivals);
  Rt.quiesce ~max_events:50_000_000 rt;

  (* report per phase: mean S and the protocol mix the selector chose *)
  let completions = Rt.completions rt in
  Format.printf "%-12s %8s  %s@." "phase" "mean S" "protocol mix chosen";
  List.iter
    (fun (name, t0, t1, _) ->
      let in_phase =
        List.filter
          (fun (c : Rt.completion) -> c.submitted_at >= t0 && c.submitted_at < t1)
          completions
      in
      let mean =
        match in_phase with
        | [] -> Float.nan
        | _ ->
          List.fold_left
            (fun acc (c : Rt.completion) -> acc +. c.executed_at -. c.submitted_at)
            0. in_phase
          /. float_of_int (List.length in_phase)
      in
      let count p =
        List.length
          (List.filter
             (fun (c : Rt.completion) ->
               Ccdb_model.Protocol.equal c.txn.protocol p)
             in_phase)
      in
      Format.printf "%-12s %8.1f  2PL:%d T/O:%d PA:%d@." name mean
        (count Ccdb_model.Protocol.Two_pl)
        (count Ccdb_model.Protocol.T_o)
        (count Ccdb_model.Protocol.Pa))
    phases;
  Format.printf "all %d committed, serializable: %b@."
    (Rt.counters rt).committed
    (Ccdb_serial.Check.conflict_serializable
       (Ccdb_storage.Store.logs (Rt.store rt)))
