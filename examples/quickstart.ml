(* Quickstart: build a small distributed database, run three transactions —
   one per concurrency-control protocol — through the unified system, and
   inspect the outcome.

   Run with: dune exec examples/quickstart.exe *)

module Rt = Ccdb_protocols.Runtime

let () =
  (* a database of 8 logical items over 3 sites, each item on 2 sites *)
  let catalog = Ccdb_storage.Catalog.create ~items:8 ~sites:3 ~replication:2 in
  let rt =
    Rt.create ~seed:7 ~net_config:Ccdb_sim.Net.default_config ~catalog ()
  in
  let system = Core.Unified_system.create rt in
  (* note each commit and its system time as it happens *)
  let commits = ref [] in
  Rt.subscribe rt (function
    | Rt.Txn_committed { txn; submitted_at; executed_at; _ } ->
      commits := (txn, executed_at -. submitted_at) :: !commits
    | _ -> ());

  (* three transactions, each under its own protocol — the point of the
     unified algorithm *)
  let t1 =
    Ccdb_model.Txn.make ~id:1 ~site:0 ~read_set:[ 0 ] ~write_set:[ 1 ]
      ~compute_time:5. ~protocol:Ccdb_model.Protocol.Two_pl
  in
  let t2 =
    Ccdb_model.Txn.make ~id:2 ~site:1 ~read_set:[ 1 ] ~write_set:[ 2 ]
      ~compute_time:5. ~protocol:Ccdb_model.Protocol.T_o
  in
  let t3 =
    Ccdb_model.Txn.make ~id:3 ~site:2 ~read_set:[ 2 ] ~write_set:[ 0 ]
      ~compute_time:5. ~protocol:Ccdb_model.Protocol.Pa
  in
  Core.Unified_system.submit system t1;
  Core.Unified_system.submit system t2;
  Core.Unified_system.submit system t3;

  (* run the discrete-event simulation to completion *)
  Rt.quiesce rt;

  Format.printf "committed: %d transactions@." (Rt.counters rt).committed;
  List.iter
    (fun (txn, s) ->
      Format.printf "  %a  system time %.1f@." Ccdb_model.Txn.pp txn s)
    (List.rev !commits);

  (* every run can be checked for conflict serializability *)
  let logs = Ccdb_storage.Store.logs (Rt.store rt) in
  Format.printf "conflict serializable: %b@."
    (Ccdb_serial.Check.conflict_serializable logs);
  (match Ccdb_serial.Check.serialization_order logs with
   | Some order ->
     Format.printf "serialization order: %a@."
       (Format.pp_print_list
          ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " < ")
          (fun ppf id -> Format.fprintf ppf "t%d" id))
       order
   | None -> Format.printf "no serialization order?!@.");
  Format.printf "messages sent: %d@." (Ccdb_sim.Net.messages_sent (Rt.net rt))
