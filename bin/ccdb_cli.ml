(* Command-line driver: run single simulations, experiment tables, or STL
   evaluations from the shell.

     ccdb_cli run --mode dynamic --lambda 0.2 --txns 400
     ccdb_cli run --plan "drop=0.1,crash=1@400+300,seed=11" --audit
     ccdb_cli experiments --only E1,E6 --quick
     ccdb_cli stl --lambda-a 1.0 --loss 0.3 --horizon 40 *)

let protocol_conv =
  let parse s =
    match Ccdb_model.Protocol.of_string s with
    | Some p -> Ok p
    | None -> Error (`Msg (Printf.sprintf "unknown protocol %S" s))
  in
  Cmdliner.Arg.conv (parse, Ccdb_model.Protocol.pp)

let mode_conv =
  let parse s =
    match String.lowercase_ascii s with
    | "unified" -> Ok Ccdb_harness.Driver.Unified
    | "dynamic" -> Ok Ccdb_harness.Driver.Dynamic
    | "full-lock" -> Ok Ccdb_harness.Driver.Unified_full_lock
    | "pure-mvto" | "mvto" -> Ok Ccdb_harness.Driver.Mvto
    | "pure-cto" | "conservative" -> Ok Ccdb_harness.Driver.Conservative
    | s -> (
      let strip prefix =
        if String.length s > String.length prefix
           && String.sub s 0 (String.length prefix) = prefix
        then
          Some
            (String.sub s (String.length prefix)
               (String.length s - String.length prefix))
        else None
      in
      match strip "pure-" with
      | Some p -> (
        match Ccdb_model.Protocol.of_string p with
        | Some p -> Ok (Ccdb_harness.Driver.Pure p)
        | None -> Error (`Msg ("unknown protocol in mode: " ^ s)))
      | None -> (
        match strip "unified-" with
        | Some p -> (
          match Ccdb_model.Protocol.of_string p with
          | Some p -> Ok (Ccdb_harness.Driver.Unified_forced p)
          | None -> Error (`Msg ("unknown protocol in mode: " ^ s)))
        | None -> Error (`Msg ("unknown mode: " ^ s))))
  in
  let print ppf mode =
    Format.pp_print_string ppf (Ccdb_harness.Driver.mode_name mode)
  in
  Cmdliner.Arg.conv (parse, print)

(* --- checked flags ------------------------------------------------------ *)

(* Numeric flags are range-checked as they are parsed, so an out-of-range
   value is a usage error (exit 124) naming the flag, not an
   [Invalid_argument] raised deep inside set-up (exit 125) or, for NaN, a
   run that never ends. *)
let checked ~what ok conv =
  let parse s =
    match Cmdliner.Arg.conv_parser conv s with
    | Ok v when ok v -> Ok v
    | Ok _ -> Error (`Msg (Printf.sprintf "expected %s, got %S" what s))
    | Error _ as e -> e
  in
  Cmdliner.Arg.conv (parse, Cmdliner.Arg.conv_printer conv)

let positive_int =
  checked ~what:"a positive integer" (fun n -> n > 0) Cmdliner.Arg.int

let count =
  checked ~what:"a non-negative integer" (fun n -> n >= 0) Cmdliner.Arg.int

let positive_float =
  checked ~what:"a positive finite number"
    (fun x -> x > 0. && Float.is_finite x)
    Cmdliner.Arg.float

let non_negative_float =
  checked ~what:"a finite number >= 0"
    (fun x -> x >= 0. && Float.is_finite x)
    Cmdliner.Arg.float

let fraction =
  checked ~what:"a number in [0, 1]"
    (fun x -> x >= 0. && x <= 1.)
    Cmdliner.Arg.float

(* The workload and topology flags of run, insights and sweep. *)
let lambda_term =
  Cmdliner.Arg.(
    value & opt positive_float 0.1 & info [ "lambda" ] ~doc:"Arrival rate.")

let txns_term =
  Cmdliner.Arg.(value & opt count 400 & info [ "txns" ] ~doc:"Transactions.")

let sites_term =
  Cmdliner.Arg.(value & opt positive_int 4 & info [ "sites" ] ~doc:"Sites.")

let items_term =
  Cmdliner.Arg.(
    value & opt positive_int 24 & info [ "items" ] ~doc:"Logical items.")

let replication_term =
  Cmdliner.Arg.(
    value & opt positive_int 2 & info [ "replication" ] ~doc:"Copies per item.")

let read_fraction_term =
  Cmdliner.Arg.(
    value & opt fraction 0.5 & info [ "read-fraction" ] ~doc:"Read fraction.")

let usage_error fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("ccdb_cli: " ^ msg);
      exit 124)
    fmt

(* Relations between flags that no single converter sees, checked on the
   assembled set-up before anything runs.  The acceptor set of
   [--commit paxos:F] lives at sites 0..2F, so the site count bounds the
   tolerable F. *)
let check_setup (setup : Ccdb_harness.Driver.setup)
    (spec : Ccdb_workload.Generator.spec) =
  if setup.replication > setup.sites then
    usage_error
      "--sites %d is fewer than the %d copies of each item (--replication)"
      setup.sites setup.replication;
  if spec.size_min > spec.size_max then
    usage_error "--size-min %d exceeds --size-max %d" spec.size_min
      spec.size_max;
  if spec.size_max > setup.items then
    usage_error
      "--items %d is fewer than the %d items a transaction may access \
       (--size-max)"
      setup.items spec.size_max;
  match setup.commit with
  | Ccdb_protocols.Runtime.Paxos { f } when setup.sites < (2 * f) + 1 ->
    usage_error "--commit paxos:%d needs at least %d sites (2F+1), got %d" f
      ((2 * f) + 1) setup.sites
  | _ -> ()

(* A fault plan may only name sites that exist; the harness places the
   [k]-th acceptor at site [k]. *)
let check_plan ~sites plan =
  let top =
    List.fold_left
      (fun top (rc : Ccdb_sim.Fault_plan.role_crash) ->
        match rc.role with
        | Ccdb_sim.Fault_plan.Acceptor k -> max top k
        | Ccdb_sim.Fault_plan.Coordinator -> top)
      (Ccdb_sim.Fault_plan.max_site plan)
      (Ccdb_sim.Fault_plan.role_crashes plan)
  in
  if top >= sites then
    usage_error "--plan names site %d, but --sites is %d" top sites

(* Each simulating subcommand's action takes a final [()], so that it
   runs under this handler: a simulation that exhausts its event budget
   (a livelock) ends the command with one line on stderr and exit status
   1, not an uncaught exception. *)
let reported action =
  Cmdliner.Term.(
    const (fun go ->
        try go ()
        with Ccdb_protocols.Runtime.Event_budget_exhausted _ as e ->
          prerr_endline ("ccdb_cli: " ^ Printexc.to_string e);
          Stdlib.exit 1)
    $ action)

(* ------------------------------------------------------------------ run *)

let run_cmd =
  let open Cmdliner in
  let mode =
    Arg.(value & opt mode_conv Ccdb_harness.Driver.Unified
         & info [ "mode" ] ~docv:"MODE"
             ~doc:
               "System to run: pure-2pl, pure-to, pure-pa, pure-mvto, \
                pure-cto, unified, unified-2pl, unified-to, unified-pa, \
                full-lock, dynamic.")
  in
  let size_min =
    Arg.(value & opt positive_int 1 & info [ "size-min" ] ~doc:"Min st.")
  in
  let size_max =
    Arg.(value & opt positive_int 3 & info [ "size-max" ] ~doc:"Max st.")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"RNG seed.") in
  let mix =
    Arg.(value
         & opt
             (checked ~what:"a non-empty protocol list" (fun l -> l <> [])
                (list protocol_conv))
             Ccdb_model.Protocol.all
         & info [ "mix" ]
             ~doc:"Protocol mix for the unified mode (even weights).")
  in
  let detection =
    (* The floor keeps every scan moving the clock: once [now] is large,
       [now +. 1e-300 = now], and the detector would fire forever at one
       instant, each firing queueing a report per site. *)
    let period what v =
      match float_of_string_opt v with
      | Some x when x >= 1. && Float.is_finite x -> Ok x
      | _ ->
        Error
          (`Msg
             (Printf.sprintf "bad %s %S: expected a finite number >= 1" what v))
    in
    let parse s =
      match String.split_on_char ':' (String.lowercase_ascii s) with
      | [ "centralized"; v ] ->
        Result.map
          (fun interval ->
            Ccdb_protocols.Deadlock.Centralized { interval })
          (period "interval" v)
      | [ "edge-chasing"; v ] ->
        Result.map
          (fun probe_delay ->
            Ccdb_protocols.Deadlock.Edge_chasing { probe_delay })
          (period "probe delay" v)
      | _ -> Error (`Msg "expected centralized:INTERVAL or edge-chasing:DELAY")
    in
    let print ppf = function
      | Ccdb_protocols.Deadlock.Centralized { interval } ->
        Format.fprintf ppf "centralized:%g" interval
      | Ccdb_protocols.Deadlock.Edge_chasing { probe_delay } ->
        Format.fprintf ppf "edge-chasing:%g" probe_delay
    in
    Arg.(value
         & opt (conv (parse, print)) Ccdb_protocols.Deadlock.default_detection
         & info [ "detection" ]
             ~doc:
               "Deadlock detection: centralized:INTERVAL or \
                edge-chasing:DELAY, in simulated time units, at least 1 (a \
                tenth of a network hop).")
  in
  let prevention =
    let parse s =
      match String.lowercase_ascii s with
      | "none" -> Ok Ccdb_protocols.Two_pl_system.No_prevention
      | "wait-die" -> Ok Ccdb_protocols.Two_pl_system.Wait_die
      | "wound-wait" -> Ok Ccdb_protocols.Two_pl_system.Wound_wait
      | _ -> Error (`Msg "expected none, wait-die or wound-wait")
    in
    let print ppf = function
      | Ccdb_protocols.Two_pl_system.No_prevention ->
        Format.pp_print_string ppf "none"
      | Ccdb_protocols.Two_pl_system.Wait_die ->
        Format.pp_print_string ppf "wait-die"
      | Ccdb_protocols.Two_pl_system.Wound_wait ->
        Format.pp_print_string ppf "wound-wait"
    in
    Arg.(value
         & opt (conv (parse, print)) Ccdb_protocols.Two_pl_system.No_prevention
         & info [ "prevention" ]
             ~doc:
               "Deadlock prevention for pure 2PL: none, wait-die or \
                wound-wait.")
  in
  let twr =
    Arg.(value & flag
         & info [ "thomas-write-rule" ]
             ~doc:"Enable the Thomas Write Rule in the pure T/O baseline.")
  in
  let audit =
    let path =
      Arg.enum
        [ ("stream", Ccdb_harness.Driver.Streaming);
          ("batch", Ccdb_harness.Driver.Batch);
          ("differential", Ccdb_harness.Driver.Differential) ]
    in
    Arg.(value
         & opt ~vopt:(Some Ccdb_harness.Driver.Streaming) (some path) None
         & info [ "audit" ] ~docv:"PATH"
             ~doc:
               "Audit the run against the paper's invariants (semi-lock \
                compatibility, precedence conditions E1/E2, the deadlock and \
                restart theorems, serializability, and with a fail-stop \
                plan durability and consensus) and print the report: its \
                summary, then one line per finding.  $(docv) is \
                $(b,stream) (the default: events feed the incremental \
                analyzer as they fire, no trace retained), $(b,batch) \
                (record the full trace and replay it through the batch \
                analyzer after the run, the executable specification) or \
                $(b,differential) (both; any disagreement is an \
                audit.divergence error).  Exits 1 on an error finding.")
  in
  let no_store_check =
    Arg.(value & flag
         & info [ "no-store-check" ]
             ~doc:
               "Skip the run summary's whole-history store checks (the \
                $(i,serializable) and $(i,replicas ok) lines): its \
                serializability check re-scans every log pair, prohibitive \
                at millions of transactions.  Only those are skipped.  With \
                $(b,--audit), in every mode but pure-mvto, the streaming \
                audit still decides conflict serializability from its \
                incremental conflict graph, and still checks replica \
                convergence and durability over the final store at the end \
                of the run, in time linear in the logs (EXPERIMENTS.md \
                E13).")
  in
  let commit =
    let parse s =
      match String.lowercase_ascii s with
      | "2pc" -> Ok (Ccdb_protocols.Runtime.Paxos { f = 0 })
      | "paxos" -> Ok (Ccdb_protocols.Runtime.Paxos { f = 1 })
      | s -> (
        match String.index_opt s ':' with
        | Some i when String.sub s 0 i = "paxos" -> (
          let k = String.sub s (i + 1) (String.length s - i - 1) in
          match int_of_string_opt k with
          | Some f when f >= 0 -> Ok (Ccdb_protocols.Runtime.Paxos { f })
          | _ -> Error (`Msg (Printf.sprintf "bad fault tolerance %S" k)))
        | _ -> Error (`Msg "expected 2pc, paxos or paxos:F"))
    in
    let print ppf (Ccdb_protocols.Runtime.Paxos { f }) =
      if f = 0 then Format.pp_print_string ppf "2pc"
      else Format.fprintf ppf "paxos:%d" f
    in
    Arg.(value
         & opt (some (conv (parse, print))) None
         & info [ "commit" ] ~docv:"PROTO"
             ~doc:
               "Atomic-commitment engine, Paxos Commit tolerating F \
                acceptor crashes; needs a fail-stop $(b,--plan) \
                ($(b,wipe=true)), the only runs that commit through one: \
                $(b,2pc) (two-phase commit, the default: F = 0, whose one \
                acceptor is each transaction's home site; a round open \
                when that site fail-stops waits for its recovery), \
                $(b,paxos) (F = 1) or $(b,paxos:F) (2F+1 acceptors at \
                sites 0..2F — requires at least 2F+1 sites; $(b,paxos:0) \
                is $(b,2pc)).  See DESIGN.md section 15.")
  in
  let plan =
    let parse s =
      Result.map_error (fun e -> `Msg e) (Ccdb_sim.Fault_plan.of_string s)
    in
    Arg.(value
         & opt (some (conv (parse, Ccdb_sim.Fault_plan.pp))) None
         & info [ "plan" ] ~docv:"PLAN"
             ~doc:
               "Run under a fault plan, e.g. \
                $(b,drop=0.1,crash=1@400+300,crash=2@1200+300,seed=11).  \
                Grammar: drop=F dup=F delay=PxM crash=WHO@T+D where WHO is \
                a site number, $(b,coordinator) or $(b,acceptor:K), \
                link=SRC>DST/... wipe=B seed=N (see DESIGN.md section 9).  \
                $(b,wipe=true) makes crashes fail-stop: volatile state is \
                wiped, sites write ahead and replay their logs on recovery \
                (DESIGN.md section 11).")
  in
  let run mode lambda txns sites items repl size_min size_max qr seed mix
      detection prevention twr audit no_store_check commit plan () =
    let spec =
      { Ccdb_workload.Generator.default with
        arrival_rate = lambda;
        size_min;
        size_max;
        read_fraction = qr;
        protocol_mix = List.map (fun p -> (p, 1.)) mix }
    in
    (match (commit, plan) with
     | Some _, Some p when Ccdb_sim.Fault_plan.wipe p -> ()
     | Some _, _ ->
       usage_error
         "--commit needs a fail-stop --plan (wipe=true): no other run \
          commits through a commit protocol"
     | None, _ -> ());
    let setup =
      { Ccdb_harness.Driver.default_setup with
        sites; items; replication = repl; seed;
        commit =
          Option.value commit
            ~default:Ccdb_harness.Driver.default_setup.commit;
        net = Ccdb_sim.Net.default_config ~sites;
        detection; prevention; thomas_write_rule = twr }
    in
    check_setup setup spec;
    Option.iter (check_plan ~sites) plan;
    let r =
      Ccdb_harness.Driver.run ~setup ~n_txns:txns ~audit:(Option.is_some audit)
        ?audit_path:audit ?faults:plan ~verify_store:(not no_store_check) mode
        spec
    in
    let s = r.summary in
    let field label fmt = Format.printf ("%-17s" ^^ fmt ^^ "@.") label in
    field "mode:" "%s" (Ccdb_harness.Driver.mode_name mode);
    Option.iter (field "fault plan:" "%a" Ccdb_sim.Fault_plan.pp) plan;
    field "workload:" "%a" Ccdb_workload.Generator.pp_spec spec;
    field "committed:" "%d / %d" s.committed txns;
    field "mean S:" "%.2f" s.mean_system_time;
    field "p95 S:" "%.2f" s.p95_system_time;
    field "throughput:" "%.4f txns/unit" s.throughput;
    field "restarts/txn:" "%.3f" s.restarts_per_txn;
    field "deadlock aborts:" "%d" s.deadlock_aborts;
    if Option.is_some plan then field "site aborts:" "%d" s.site_aborts;
    field "backoffs/txn:" "%.3f" s.backoffs_per_txn;
    field "messages/txn:" "%.1f" s.messages_per_txn;
    Option.iter
      (fun (st : Ccdb_sim.Net.fault_stats) ->
        field "transport:"
          "%d transmissions, %d dropped, %d duplicated, %d retransmitted"
          st.transmissions st.dropped st.duplicated st.retransmitted;
        field ""
          "%d deliveries suppressed by crashes, %d acks lost, %d crashes, %d \
           recoveries"
          st.suppressed st.acks_lost st.crashes st.recoveries)
      s.transport;
    Option.iter
      (fun (rec_ : Ccdb_harness.Metrics.recovery) ->
        field "durability:" "%d WAL appends, %d volatile entries dropped"
          rec_.wal_appends rec_.entries_dropped;
        field "recovery:"
          "%d replays (%d interrupted), %d records replayed, %.1f time units"
          rec_.replays rec_.interrupted rec_.records_replayed rec_.replay_time;
        let wal = Ccdb_protocols.Runtime.wal r.runtime in
        for site = 0 to sites - 1 do
          field (Printf.sprintf "  site %d WAL:" site) "%d records"
            (Ccdb_storage.Wal.site_appends wal site)
        done)
      s.recovery;
    if no_store_check then field "store checks:" "skipped (--no-store-check)"
    else begin
      field "serializable:" "%b" s.serializable;
      field "replicas ok:" "%b" s.replica_consistent
    end;
    if r.decisions <> [] then
      field "protocol mix:" "%a"
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
           (fun ppf (p, n) ->
             Format.fprintf ppf "%a=%d" Ccdb_model.Protocol.pp p n))
        r.decisions;
    Option.iter (field "audit:" "%a" Ccdb_analysis.Report.pp) r.audit;
    let audit_clean =
      Option.fold ~none:true ~some:Ccdb_analysis.Report.is_clean r.audit
    in
    if s.committed <> txns
       || not (s.serializable && s.replica_consistent && audit_clean)
    then exit 1
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:
         "Run one simulation and print its metrics: plain, audited \
          ($(b,--audit)) or under a fault plan ($(b,--plan)), which adds \
          the transport counters, and with $(b,wipe=true) the durability \
          and recovery counters.  Exits 1 if a transaction fails to \
          commit, the store checks fail or the audit finds an error.")
    (reported
       Term.(
         const run $ mode $ lambda_term $ txns_term $ sites_term $ items_term
         $ replication_term $ size_min $ size_max $ read_fraction_term $ seed
         $ mix $ detection $ prevention $ twr $ audit $ no_store_check
         $ commit $ plan))

(* ---------------------------------------------------------- experiments *)

let experiments_cmd =
  let open Cmdliner in
  let quick =
    Arg.(value & flag & info [ "quick" ] ~doc:"Reduced transaction counts.")
  in
  let only =
    Arg.(value & opt (list string) []
         & info [ "only" ] ~docv:"IDS"
             ~doc:
               "Run only these experiments: comma-separated ids, e.g. \
                E1,E6.")
  in
  let csv_dir =
    Arg.(value & opt (some string) None
         & info [ "csv" ] ~docv:"DIR" ~doc:"Also write each table as CSV.")
  in
  let jobs =
    Arg.(value
         & opt int (Ccdb_harness.Parallel.default_jobs ())
         & info [ "jobs"; "j" ] ~docv:"N"
             ~doc:
               "Fan independent experiment points across $(docv) domains \
                (default: recommended domain count).  Output is \
                byte-identical for every job count; 1 takes the plain \
                serial path.")
  in
  let run quick only csv_dir jobs () =
    let suite = Ccdb_harness.Experiments.staged ~quick () in
    let ids = List.map Ccdb_harness.Experiments.id suite in
    let only = List.map String.uppercase_ascii only in
    List.iter
      (fun id ->
        if not (List.mem id ids) then
          usage_error "--only: unknown experiment %S (known: %s)" id
            (String.concat ", " ids))
      only;
    let chosen =
      if only = [] then suite
      else
        List.filter (fun s -> List.mem (Ccdb_harness.Experiments.id s) only)
          suite
    in
    List.iter
      (fun o ->
        print_endline (Ccdb_harness.Experiments.render o);
        print_newline ();
        match csv_dir with
        | None -> ()
        | Some dir ->
          let path =
            Filename.concat dir
              (String.lowercase_ascii o.Ccdb_harness.Experiments.id ^ ".csv")
          in
          let oc = open_out path in
          output_string oc
            (Ccdb_util.Table.to_csv o.Ccdb_harness.Experiments.table);
          close_out oc;
          Printf.printf "(wrote %s)\n\n" path)
      (Ccdb_harness.Parallel.experiments ~jobs chosen)
  in
  Cmd.v
    (Cmd.info "experiments"
       ~doc:"Regenerate the paper-reproduction tables (E1-E14, E16, X1-X7).")
    (reported Term.(const run $ quick $ only $ csv_dir $ jobs))

(* ---------------------------------------------------------------- sweep *)

let sweep_cmd =
  let open Cmdliner in
  let lambdas =
    Arg.(value & opt (list positive_float) [ 0.02; 0.05; 0.1; 0.2; 0.4 ]
         & info [ "lambdas" ] ~doc:"Arrival rates to sweep.")
  in
  let modes =
    Arg.(value
         & opt (list mode_conv)
             [ Ccdb_harness.Driver.Pure Ccdb_model.Protocol.Two_pl;
               Ccdb_harness.Driver.Pure Ccdb_model.Protocol.T_o;
               Ccdb_harness.Driver.Pure Ccdb_model.Protocol.Pa ]
         & info [ "modes" ] ~doc:"Systems to sweep.")
  in
  let csv =
    Arg.(value & opt (some string) None
         & info [ "csv" ] ~docv:"FILE" ~doc:"Also write the table as CSV.")
  in
  let run lambdas modes txns items csv () =
    check_setup
      { Ccdb_harness.Driver.default_setup with items }
      Ccdb_workload.Generator.default;
    let table =
      Ccdb_util.Table.create
        ~columns:
          [ ("mode", Ccdb_util.Table.Left); ("lambda", Ccdb_util.Table.Right);
            ("mean S", Ccdb_util.Table.Right); ("p95 S", Ccdb_util.Table.Right);
            ("restarts/txn", Ccdb_util.Table.Right);
            ("deadlocks", Ccdb_util.Table.Right);
            ("msgs/txn", Ccdb_util.Table.Right);
            ("serializable", Ccdb_util.Table.Left) ]
    in
    List.iter
      (fun mode ->
        List.iter
          (fun lambda ->
            let spec =
              { Ccdb_workload.Generator.default with arrival_rate = lambda }
            in
            let setup = { Ccdb_harness.Driver.default_setup with items } in
            let s =
              (Ccdb_harness.Driver.run ~setup ~n_txns:txns mode spec).summary
            in
            Ccdb_util.Table.add_row table
              [ Ccdb_harness.Driver.mode_name mode;
                Printf.sprintf "%.3f" lambda;
                Ccdb_util.Table.fmt_float s.mean_system_time;
                Ccdb_util.Table.fmt_float s.p95_system_time;
                Ccdb_util.Table.fmt_float ~decimals:3 s.restarts_per_txn;
                string_of_int s.deadlock_aborts;
                Ccdb_util.Table.fmt_float ~decimals:1 s.messages_per_txn;
                (if s.serializable then "yes" else "NO") ])
          lambdas)
      modes;
    print_string (Ccdb_util.Table.render table);
    match csv with
    | None -> ()
    | Some path ->
      let oc = open_out path in
      output_string oc (Ccdb_util.Table.to_csv table);
      close_out oc;
      Printf.printf "(wrote %s)\n" path
  in
  Cmd.v
    (Cmd.info "sweep" ~doc:"Sweep arrival rates across systems; print/CSV.")
    (reported
       Term.(const run $ lambdas $ modes $ txns_term $ items_term $ csv))

(* ------------------------------------------------------------- insights *)

(* [--adaptive cumulative|configured|measured:WINDOW] maps onto
   {!Ccdb_harness.Driver.adaptive}. *)
let adaptive_conv =
  let parse s =
    match String.split_on_char ':' (String.lowercase_ascii s) with
    | [ "cumulative" ] -> Ok Ccdb_harness.Driver.Cumulative
    | [ "configured" ] -> Ok Ccdb_harness.Driver.Configured
    | [ "measured" ] -> Ok (Ccdb_harness.Driver.Measured 400.)
    | [ "measured"; w ] -> (
      match float_of_string_opt w with
      | Some w when w > 0. -> Ok (Ccdb_harness.Driver.Measured w)
      | _ -> Error (`Msg "measured:WINDOW needs a positive window"))
    | _ -> Error (`Msg "expected cumulative, configured or measured[:WINDOW]")
  in
  let print ppf = function
    | Ccdb_harness.Driver.Cumulative -> Format.pp_print_string ppf "cumulative"
    | Ccdb_harness.Driver.Configured -> Format.pp_print_string ppf "configured"
    | Ccdb_harness.Driver.Measured w -> Format.fprintf ppf "measured:%g" w
  in
  Cmdliner.Arg.conv (parse, print)

(* One [--phase] argument: comma-separated k=v settings over a base spec,
   e.g. lambda=0.3,txns=300,read-fraction=0,size=1-1,zipf=1.0. *)
type phase_arg = {
  ph_lambda : float option;
  ph_txns : int;
  ph_rf : float option;
  ph_size : (int * int) option;
  ph_zipf : float option;
}

let phase_conv =
  let parse s =
    let init =
      { ph_lambda = None; ph_txns = 0; ph_rf = None; ph_size = None;
        ph_zipf = None }
    in
    let step acc kv =
      match String.index_opt kv '=' with
      | None -> Error (`Msg (Printf.sprintf "phase setting %S is not k=v" kv))
      | Some i -> (
        let k = String.sub kv 0 i
        and v = String.sub kv (i + 1) (String.length kv - i - 1) in
        let fl ok =
          match float_of_string_opt v with
          | Some f when ok f -> Ok f
          | _ -> Error (`Msg (Printf.sprintf "phase %s: bad value %S" k v))
        in
        let positive f = f > 0. && Float.is_finite f in
        match k with
        | "lambda" ->
          Result.map (fun f -> { acc with ph_lambda = Some f }) (fl positive)
        | "txns" -> (
          match int_of_string_opt v with
          | Some n when n > 0 -> Ok { acc with ph_txns = n }
          | _ -> Error (`Msg (Printf.sprintf "phase txns: bad count %S" v)))
        | "read-fraction" ->
          Result.map
            (fun f -> { acc with ph_rf = Some f })
            (fl (fun f -> f >= 0. && f <= 1.))
        | "zipf" ->
          Result.map (fun f -> { acc with ph_zipf = Some f }) (fl positive)
        | "size" -> (
          match String.split_on_char '-' v with
          | [ a; b ] -> (
            match (int_of_string_opt a, int_of_string_opt b) with
            | Some lo, Some hi when 0 < lo && lo <= hi ->
              Ok { acc with ph_size = Some (lo, hi) }
            | _ -> Error (`Msg (Printf.sprintf "phase size: bad range %S" v)))
          | _ -> Error (`Msg "phase size: expected MIN-MAX"))
        | _ -> Error (`Msg (Printf.sprintf "unknown phase setting %S" k)))
    in
    let rec fold acc = function
      | [] ->
        if acc.ph_txns = 0 then Error (`Msg "phase needs txns=N")
        else Ok acc
      | kv :: rest -> Result.bind (step acc kv) (fun acc -> fold acc rest)
    in
    fold init (String.split_on_char ',' s)
  in
  let print ppf p = Format.fprintf ppf "txns=%d" p.ph_txns in
  Cmdliner.Arg.conv (parse, print)

let insights_cmd =
  let open Cmdliner in
  let mode =
    Arg.(value & opt mode_conv Ccdb_harness.Driver.Dynamic
         & info [ "mode" ] ~docv:"MODE"
             ~doc:"System to observe (same values as $(b,run) --mode).")
  in
  let adaptive =
    Arg.(value & opt adaptive_conv (Ccdb_harness.Driver.Measured 400.)
         & info [ "adaptive" ] ~docv:"SOURCE"
             ~doc:
               "STL parameter source for the dynamic mode: $(b,cumulative), \
                $(b,configured) or $(b,measured:WINDOW) (sliding-window \
                width in simulated time units).")
  in
  let reselect =
    Arg.(value & flag
         & info [ "reselect" ]
             ~doc:"Re-run the selector when a dynamic transaction restarts.")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"RNG seed.") in
  let window =
    Arg.(value & opt positive_float 500.
         & info [ "window" ] ~docv:"UNITS"
             ~doc:"Width of the insights time-series windows.")
  in
  let phases =
    Arg.(value & opt_all phase_conv []
         & info [ "phase" ] ~docv:"SPEC"
             ~doc:
               "Run a phased workload instead of a single spec; repeatable, \
                in order.  $(docv) is comma-separated k=v settings over the \
                base flags: lambda=F, txns=N (required), read-fraction=F, \
                size=MIN-MAX, zipf=THETA.  E14's phase change is two \
                $(b,--phase) arguments (EXPERIMENTS.md).")
  in
  let json_path =
    Arg.(value & opt (some string) None
         & info [ "json" ] ~docv:"FILE"
             ~doc:
               "Write the versioned insights document (ccdb-insights/1, see \
                OBSERVABILITY.md) to $(docv); $(b,-) for stdout.")
  in
  let check =
    Arg.(value & flag
         & info [ "check" ]
             ~doc:
               "Validate the emitted document against the schema (and its \
                print/parse round-trip); exit 1 on any violation.")
  in
  let top =
    Arg.(value & opt int 8
         & info [ "top" ] ~docv:"N"
             ~doc:"Rows per section in the human-readable tables.")
  in
  let run mode adaptive reselect lambda txns sites items repl qr seed window
      phases json_path check top () =
    let base =
      { Ccdb_workload.Generator.default with
        arrival_rate = lambda; read_fraction = qr }
    in
    let setup =
      { Ccdb_harness.Driver.default_setup with
        sites; items; replication = repl; seed;
        net = Ccdb_sim.Net.default_config ~sites; adaptive; reselect }
    in
    let collector = ref None in
    let observer rt =
      collector := Some (Ccdb_insights.Collector.attach ~window rt)
    in
    let r =
      match phases with
      | [] ->
        check_setup setup base;
        Ccdb_harness.Driver.run ~setup ~n_txns:txns ~observer mode base
      | phases ->
        let spec_of p =
          { base with
            arrival_rate = Option.value p.ph_lambda ~default:lambda;
            read_fraction = Option.value p.ph_rf ~default:qr;
            size_min = (match p.ph_size with Some (lo, _) -> lo | None -> base.size_min);
            size_max = (match p.ph_size with Some (_, hi) -> hi | None -> base.size_max);
            access =
              (match p.ph_zipf with
               | Some theta -> Ccdb_workload.Generator.Zipf theta
               | None -> base.access) }
        in
        let specs = List.map (fun p -> (spec_of p, p.ph_txns)) phases in
        List.iter (fun (spec, _) -> check_setup setup spec) specs;
        Ccdb_harness.Driver.run_phases ~setup ~observer mode specs
    in
    let c = Option.get !collector in
    let doc = Ccdb_insights.Collector.to_json c in
    let s = r.summary in
    let human = json_path <> Some "-" in
    if human then begin
      Format.printf "mode:        %s@." (Ccdb_harness.Driver.mode_name mode);
      (if mode = Ccdb_harness.Driver.Dynamic then
         Format.printf "adaptive:    %s%s@."
           (match adaptive with
            | Ccdb_harness.Driver.Cumulative -> "cumulative"
            | Ccdb_harness.Driver.Configured -> "configured"
            | Ccdb_harness.Driver.Measured w -> Printf.sprintf "measured:%g" w)
           (if reselect then " + reselect-on-restart" else ""));
      Format.printf "committed:   %d  (throughput %.4f txns/unit, mean S \
                     %.2f)@."
        s.committed s.throughput s.mean_system_time;
      Format.printf "restarts:    %.3f/txn@." s.restarts_per_txn;
      let fps = Ccdb_insights.Collector.fingerprints c in
      let by_commits =
        List.stable_sort
          (fun (a : Ccdb_insights.Collector.class_stats) b ->
            compare b.committed a.committed)
          fps
      in
      Format.printf "@.fingerprints (%d classes, top %d by commits):@."
        (List.length fps) top;
      List.iteri
        (fun i (cs : Ccdb_insights.Collector.class_stats) ->
          if i < top then
            Format.printf
              "  %-12s committed=%-5d restarts=%-4d p50=%-8.1f p90=%-8.1f \
               p99=%.1f@."
              (Ccdb_insights.Fingerprint.to_string cs.fingerprint)
              cs.committed cs.restarts
              (Ccdb_util.Histogram.percentile cs.latency 50.)
              (Ccdb_util.Histogram.percentile cs.latency 90.)
              (Ccdb_util.Histogram.percentile cs.latency 99.))
        by_commits;
      let cont = Ccdb_insights.Collector.contention c in
      if cont <> [] then begin
        Format.printf "@.contention (%d hot (protocol, item) pairs, top %d):@."
          (List.length cont) top;
        List.iteri
          (fun i (ct : Ccdb_insights.Collector.contention) ->
            if i < top then
              Format.printf
                "  %-4s item %-4d waits=%-4d wait_time=%-9.1f \
                 rejections=%-4d backoffs=%d@."
                (Ccdb_model.Protocol.to_string ct.c_protocol)
                ct.c_item ct.waits ct.wait_time ct.rejections ct.backoffs)
          cont
      end;
      Format.printf "@.windows (%g units each):@." window;
      List.iter
        (fun (w : Ccdb_insights.Collector.window) ->
          Format.printf
            "  w%-3d committed=%-5d restarts=%-4d conflicts=%-4d mean S=%-9s \
             mix: %s@."
            w.index w.w_committed w.w_restarts w.w_conflicts
            (if w.w_committed = 0 then "-"
             else
               Printf.sprintf "%.1f"
                 (w.w_latency_sum /. float_of_int w.w_committed))
            (String.concat " "
               (List.filter_map
                  (fun (p, n) ->
                    if n = 0 then None
                    else
                      Some
                        (Printf.sprintf "%s=%d"
                           (Ccdb_model.Protocol.to_string p) n))
                  w.w_by_protocol)))
        (Ccdb_insights.Collector.windows c)
    end;
    (match json_path with
     | None -> ()
     | Some "-" -> print_endline (Ccdb_util.Json.to_string doc)
     | Some path ->
       let oc = open_out path in
       output_string oc (Ccdb_util.Json.to_string doc);
       output_char oc '\n';
       close_out oc;
       if human then Format.printf "@.(wrote %s)@." path);
    if check then begin
      let fail msg =
        Format.eprintf "insights schema check FAILED: %s@." msg;
        exit 1
      in
      (match Ccdb_insights.Collector.validate doc with
       | Ok () -> ()
       | Error e -> fail e);
      (match Ccdb_util.Json.of_string (Ccdb_util.Json.to_string doc) with
       | Error e -> fail ("round-trip parse: " ^ e)
       | Ok reparsed -> (
         match Ccdb_insights.Collector.validate reparsed with
         | Ok () -> ()
         | Error e -> fail ("round-trip: " ^ e)));
      if human then Format.printf "schema check: ok (%s)@."
          Ccdb_insights.Collector.schema_version
    end
  in
  Cmd.v
    (Cmd.info "insights"
       ~doc:
         "Run one simulation with the workload-insights collector attached \
          and report per-fingerprint latency percentiles, per-item \
          contention counters and the windowed time series — the same \
          document the adaptive selector's measured mode acts on.  \
          $(b,--json) emits the versioned ccdb-insights/1 document \
          (OBSERVABILITY.md documents every field); $(b,--check) validates \
          it against the schema and exits 1 on a violation.")
    (reported
       Term.(
         const run $ mode $ adaptive $ reselect $ lambda_term $ txns_term
         $ sites_term $ items_term $ replication_term $ read_fraction_term
         $ seed $ window $ phases $ json_path $ check $ top))

(* ------------------------------------------------------------------ stl *)

let stl_cmd =
  let open Cmdliner in
  let param name c default doc =
    Arg.(value & opt c default & info [ name ] ~doc)
  in
  let rate = non_negative_float in
  let run lambda_a lambda_r lambda_w qr k loss horizon =
    let p =
      { Ccdb_stl.Stl_model.lambda_a; lambda_r; lambda_w; q_r = qr; k }
    in
    let v = Ccdb_stl.Stl_model.stl' p ~lambda_loss:loss ~u:horizon in
    Format.printf "STL'(%.3f, %.1f) = %.4f@." loss horizon v;
    Format.printf "lambda_block    = %.4f@."
      (Ccdb_stl.Stl_model.lambda_block p ~lambda_loss:loss);
    Format.printf "delta per block = %.4f@." (Ccdb_stl.Stl_model.delta p);
    Format.printf "bounds: [%.4f, %.4f]@." (loss *. horizon)
      (lambda_a *. horizon)
  in
  Cmd.v (Cmd.info "stl" ~doc:"Evaluate the STL' dynamic program.")
    Term.(
      const run
      $ param "lambda-a" positive_float 1.0 "System throughput."
      $ param "lambda-r" rate 0.04 "Queue read rate."
      $ param "lambda-w" rate 0.04 "Queue write rate."
      $ param "qr" fraction 0.5 "Read fraction."
      $ param "k"
          (checked ~what:"a finite number >= 1"
             (fun x -> x >= 1. && Float.is_finite x)
             Arg.float)
          3. "Requests per txn."
      $ param "loss" rate 0.3 "Initial loss rate."
      $ param "horizon" rate 40. "Lock time U.")

let () =
  let open Cmdliner in
  let doc =
    "A unified concurrency control algorithm for distributed database \
     systems (Wang & Li, ICDE 1988) — reproduction toolkit."
  in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "ccdb_cli" ~doc)
          [ run_cmd; experiments_cmd; sweep_cmd; insights_cmd; stl_cmd ]))
