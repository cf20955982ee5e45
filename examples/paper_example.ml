(* The example from section 4.2 of the paper, executed for real.

   Three data items x, y, z and three transactions:

     t1: r1(x) w1(y)     (T/O)
     t2: r2(y) w2(z)     (T/O)
     t3: r3(z) w3(x)     (2PL)

   If T/O requests were enforced with plain T/O rules inside the mix — a
   granted read never blocking anything — the three transactions could all
   execute in a cycle and the result would not be serializable.  The
   semi-lock protocol prevents it: a granted T/O read holds a semi-read lock
   that blocks the 2PL write w3(x) until t1 releases.

   This program runs the scenario under many message interleavings (seeds),
   prints one full trace, and verifies serializability every time.

   Run with: dune exec examples/paper_example.exe *)

module Rt = Ccdb_protocols.Runtime

let x = 0
and y = 1
and z = 2

let run ~seed ~verbose =
  let catalog = Ccdb_storage.Catalog.create ~items:3 ~sites:3 ~replication:1 in
  let rt =
    Rt.create ~seed ~net_config:Ccdb_sim.Net.default_config ~catalog ()
  in
  let trace = Ccdb_harness.Trace.attach rt in
  let system = Core.Unified_system.create rt in
  let submit id site reads writes protocol =
    Core.Unified_system.submit system
      (Ccdb_model.Txn.make ~id ~site ~read_set:reads ~write_set:writes
         ~compute_time:5. ~protocol)
  in
  submit 1 0 [ x ] [ y ] Ccdb_model.Protocol.T_o;
  submit 2 1 [ y ] [ z ] Ccdb_model.Protocol.T_o;
  submit 3 2 [ z ] [ x ] Ccdb_model.Protocol.Two_pl;
  Rt.quiesce rt;
  let logs = Ccdb_storage.Store.logs (Rt.store rt) in
  let serializable = Ccdb_serial.Check.conflict_serializable logs in
  if verbose then begin
    Format.printf "--- trace (seed %d) ---@." seed;
    print_endline (Ccdb_harness.Trace.render trace);
    (match Ccdb_serial.Check.serialization_order logs with
     | Some order ->
       Format.printf "serialization order: %a@."
         (Format.pp_print_list
            ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " < ")
            (fun ppf id -> Format.fprintf ppf "t%d" id))
         order
     | None -> Format.printf "NOT SERIALIZABLE@.")
  end;
  serializable

let () =
  Format.printf
    "Section 4.2 example: t1,t2 are T/O, t3 is 2PL, accesses form a \
     potential cycle over x, y, z.@.@.";
  ignore (run ~seed:7 ~verbose:true);
  let trials = 200 in
  let ok = ref 0 in
  for seed = 1 to trials do
    if run ~seed ~verbose:false then incr ok
  done;
  Format.printf
    "@.%d/%d message interleavings produced a conflict-serializable \
     execution (Theorem 2).@."
    !ok trials;
  if !ok <> trials then exit 1
