(* Bank transfers: read-modify-write transactions under the dynamic system,
   with an application-level invariant (money is conserved) checked at the
   end — on every replica.

   Transfers are write-only transactions over {from, to}: the unified
   system's write grants carry the current value, so the payload reads the
   balances through its write locks (read-modify-write on predeclared
   writes).

   Run with: dune exec examples/bank_transfer.exe *)

module Rt = Ccdb_protocols.Runtime

let accounts = 10
let initial_balance = 100
let transfers = 120

let () =
  let catalog =
    Ccdb_storage.Catalog.create ~items:accounts ~sites:4 ~replication:2
  in
  let rt =
    Rt.create ~seed:2026 ~net_config:Ccdb_sim.Net.default_config ~catalog ()
  in
  let bank = Core.Dynamic_cc.create rt in
  let rng = Ccdb_util.Rng.create ~seed:99 in

  (* seed the accounts *)
  for account = 0 to accounts - 1 do
    let txn =
      Ccdb_model.Txn.make ~id:(1000 + account) ~site:(account mod 4)
        ~read_set:[] ~write_set:[ account ] ~compute_time:1.
        ~protocol:Ccdb_model.Protocol.Two_pl
    in
    Core.Dynamic_cc.submit bank ~payload:(fun _ -> [ (account, initial_balance) ]) txn
  done;
  Rt.quiesce rt;

  (* random transfers at increasing load *)
  for i = 1 to transfers do
    let from_acct = Ccdb_util.Rng.int rng accounts in
    let to_acct = (from_acct + 1 + Ccdb_util.Rng.int rng (accounts - 1)) mod accounts in
    let amount = 1 + Ccdb_util.Rng.int rng 20 in
    let txn =
      Ccdb_model.Txn.make ~id:i ~site:(i mod 4) ~read_set:[]
        ~write_set:[ from_acct; to_acct ]
        ~compute_time:(Ccdb_util.Rng.float rng 5.)
        ~protocol:Ccdb_model.Protocol.Two_pl (* overridden by the selector *)
    in
    let payload read =
      let b_from = read from_acct and b_to = read to_acct in
      (* never overdraw: transfer what's available *)
      let amount = min amount b_from in
      [ (from_acct, b_from - amount); (to_acct, b_to + amount) ]
    in
    let delay = Ccdb_util.Rng.float rng 400. in
    ignore
      (Ccdb_sim.Engine.schedule (Rt.engine rt) ~after:delay (fun () ->
           Core.Dynamic_cc.submit bank ~payload txn))
  done;
  Rt.quiesce rt;

  let store = Rt.store rt in
  Format.printf "transfers committed: %d (plus %d account seeds)@."
    ((Rt.counters rt).committed - accounts)
    accounts;
  Format.printf "protocol routing: %a@."
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
       (fun ppf (p, n) -> Format.fprintf ppf "%a=%d" Ccdb_model.Protocol.pp p n))
    (Core.Dynamic_cc.decisions bank);

  (* the invariant: every replica agrees, and money is conserved *)
  let total = ref 0 in
  for account = 0 to accounts - 1 do
    let copies = Ccdb_storage.Catalog.copies catalog account in
    let balances =
      List.map (fun site -> Ccdb_storage.Store.read store ~item:account ~site) copies
    in
    (match balances with
     | b :: rest when List.for_all (( = ) b) rest -> total := !total + b
     | _ -> Format.printf "account %d: replicas disagree!@." account);
    Format.printf "account %d: balance %d@." account (List.hd balances)
  done;
  let expected = accounts * initial_balance in
  Format.printf "total balance: %d (expected %d) — %s@." !total expected
    (if !total = expected then "conserved" else "VIOLATED");
  Format.printf "conflict serializable: %b@."
    (Ccdb_serial.Check.conflict_serializable (Ccdb_storage.Store.logs store))
