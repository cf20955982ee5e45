(* Command-line driver: run single simulations, experiment tables, or STL
   evaluations from the shell.

     ccdb_cli run --mode dynamic --lambda 0.2 --txns 400
     ccdb_cli run --plan "drop=0.1,crash=1@400+300,seed=11" --audit
     ccdb_cli run --mode dynamic --phase lambda=0.15,txns=400 --insights
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
  let module D = Ccdb_harness.Driver in
  let parse s =
    match D.mode_of_string s with
    | Some mode -> Ok mode
    | None -> Error (`Msg ("unknown mode: " ^ s))
  in
  let print ppf mode = Format.pp_print_string ppf (D.mode_name mode) in
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

(* The counts that size a run are bounded, so that a huge one is a usage
   error, not an allocation failure (exit 125) or a run that exhausts the
   host's memory.  Measured on a 2-vCPU host: a run holds about 215 bytes
   a copy (868 MB at 2,000,000 items of two copies, 909 MB at 2^22
   copies); every mode but pure-cto runs 400 transactions over 100,000
   sites within 6 s and 27 MB; pure-cto's sites exchange timestamps
   pairwise, 147 MB and 24 s for 20 transactions over 512 sites. *)
let max_sites = 100_000
let max_cto_sites = 512
let max_copies = 1 lsl 22

let usage_error fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("ccdb_cli: " ^ msg);
      exit 124)
    fmt

(* Relations between flags that no single converter sees, checked on the
   assembled set-up before anything runs.  The acceptor set of
   [--commit paxos:F] lives at sites 0..2F, so the site count bounds the
   tolerable F (compared without computing 2F+1, which overflows).  A
   transaction's distinct items are drawn by rejection, so its last one
   takes 1 / tail draws on average, where tail is the share of draws past
   the [size_max - 1] most popular items (summed as
   {!Ccdb_util.Rng.zipf_sampler} sums it).  A Zipf skew whose tail is
   below 10^-4 is refused: at zipf=1e308 it is 0. *)
let check_setup (setup : Ccdb_harness.Driver.setup)
    (spec : Ccdb_workload.Generator.spec) =
  if setup.sites > max_sites then
    usage_error "--sites %d exceeds the %d sites a run may hold" setup.sites
      max_sites;
  if setup.replication > setup.sites then
    usage_error
      "--sites %d is fewer than the %d copies of each item (--replication)"
      setup.sites setup.replication;
  if setup.items > max_copies / setup.replication then
    usage_error
      "--items %d with %d copies each (--replication) exceeds the %d copies \
       a run may hold"
      setup.items setup.replication max_copies;
  if spec.size_min > spec.size_max then
    usage_error "--size-min %d exceeds --size-max %d" spec.size_min
      spec.size_max;
  if spec.size_max > setup.items then
    usage_error
      "--items %d is fewer than the %d items a transaction may access \
       (--size-max)"
      setup.items spec.size_max;
  (match spec.access with
   | Ccdb_workload.Generator.Zipf theta when spec.size_max > 1 ->
     let total = ref 0. and head = ref 0. in
     for i = 0 to setup.items - 1 do
       total := !total +. (1.0 /. (float_of_int (i + 1) ** theta));
       if i = spec.size_max - 2 then head := !total
     done;
     let tail = 1. -. (!head /. !total) in
     if not (tail >= 1e-4) then
       usage_error
         "--phase zipf=%g: only %.3g of the draws fall past the %d most \
          popular of %d items, so a transaction of %d distinct items takes \
          over 10^4 draws on average"
         theta tail (spec.size_max - 1) setup.items spec.size_max
   | _ -> ());
  match setup.commit with
  | Ccdb_protocols.Runtime.Paxos { f } when f > (setup.sites - 1) / 2 ->
    usage_error "--commit paxos:%d needs 2F+1 sites, got %d" f setup.sites
  | _ -> ()

(* An output file named by a flag is opened (created if absent, never
   truncated) before anything runs, so a path that cannot be written is a
   usage error naming the flag, not a [Sys_error] once the work is done. *)
let check_writable flag path =
  match open_out_gen [ Open_wronly; Open_creat ] 0o644 path with
  | oc -> close_out oc
  | exception Sys_error e -> usage_error "%s: cannot write %s" flag e

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

(* One [--phase] argument: comma-separated k=v settings over the base
   spec, e.g. lambda=0.3,txns=300,read-fraction=0,size=1-1,zipf=1.0;
   [over] applies them in order. *)
type phase_arg = {
  ph_txns : int;
  over : Ccdb_workload.Generator.spec -> Ccdb_workload.Generator.spec;
}

let phase_conv =
  let parse s =
    let step acc kv =
      match String.index_opt kv '=' with
      | None -> Error (`Msg (Printf.sprintf "phase setting %S is not k=v" kv))
      | Some i -> (
        let k = String.sub kv 0 i
        and v = String.sub kv (i + 1) (String.length kv - i - 1) in
        let bad what =
          Error (`Msg (Printf.sprintf "phase %s: %s %S" k what v))
        in
        let set f = Ok { acc with over = (fun spec -> f (acc.over spec)) } in
        let fl ok f =
          match float_of_string_opt v with
          | Some x when ok x -> set (fun spec -> f spec x)
          | _ -> bad "bad value"
        in
        let positive x = x > 0. && Float.is_finite x in
        match k with
        | "lambda" -> fl positive (fun spec x -> { spec with arrival_rate = x })
        | "txns" -> (
          match int_of_string_opt v with
          | Some n when n > 0 -> Ok { acc with ph_txns = n }
          | _ -> bad "bad count")
        | "read-fraction" ->
          fl (fun x -> x >= 0. && x <= 1.) (fun spec x ->
              { spec with read_fraction = x })
        | "zipf" ->
          fl positive (fun spec x ->
              { spec with access = Ccdb_workload.Generator.Zipf x })
        | "size" -> (
          match List.map int_of_string_opt (String.split_on_char '-' v) with
          | [ Some lo; Some hi ] when 0 < lo && lo <= hi ->
            set (fun spec -> { spec with size_min = lo; size_max = hi })
          | _ -> bad "bad range (expected MIN-MAX)")
        | _ -> Error (`Msg (Printf.sprintf "unknown phase setting %S" k)))
    in
    let rec fold acc = function
      | [] ->
        if acc.ph_txns = 0 then Error (`Msg "phase needs txns=N")
        else Ok acc
      | kv :: rest -> Result.bind (step acc kv) (fun acc -> fold acc rest)
    in
    fold { ph_txns = 0; over = Fun.id } (String.split_on_char ',' s)
  in
  let print ppf p = Format.fprintf ppf "txns=%d" p.ph_txns in
  Cmdliner.Arg.conv (parse, print)

(* [run --insights]: the collector's time-series window, in simulated
   time units, and the rows printed of each ranked section. *)
let insights_window = 500.
let insights_top = 8

(* The sections [run --insights] prints after the summary: the
   fingerprints with the most commits, the hottest (protocol, item) pairs,
   and the whole time series. *)
let print_insights c =
  let fps = Ccdb_insights.Collector.fingerprints c in
  let by_commits =
    List.stable_sort
      (fun (a : Ccdb_insights.Collector.class_stats) b ->
        compare b.committed a.committed)
      fps
  in
  Format.printf "@.fingerprints (%d classes, top %d by commits):@."
    (List.length fps) insights_top;
  List.iteri
    (fun i (cs : Ccdb_insights.Collector.class_stats) ->
      if i < insights_top then
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
      (List.length cont) insights_top;
    List.iteri
      (fun i (ct : Ccdb_insights.Collector.contention) ->
        if i < insights_top then
          Format.printf
            "  %-4s item %-4d waits=%-4d wait_time=%-9.1f rejections=%-4d \
             backoffs=%d@."
            (Ccdb_model.Protocol.to_string ct.c_protocol)
            ct.c_item ct.waits ct.wait_time ct.rejections ct.backoffs)
      cont
  end;
  Format.printf "@.windows (%g units each):@." insights_window;
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

let run_cmd =
  let open Cmdliner in
  let module D = Ccdb_harness.Driver in
  let mode =
    let names =
      List.map (fun m -> String.lowercase_ascii (D.mode_name m)) D.modes
    in
    Arg.(value & opt mode_conv D.Unified
         & info [ "mode" ] ~docv:"MODE"
             ~doc:
               (Printf.sprintf
                  "System to run, in any case: %s; full-lock, mvto and \
                   conservative are short names."
                  (String.concat ", " names)))
  in
  let lambda =
    Arg.(value & opt positive_float 0.1
         & info [ "lambda" ] ~doc:"Arrival rate.")
  in
  let txns =
    Arg.(value & opt (some ~none:"400" count) None
         & info [ "txns" ]
             ~doc:"Transactions; not with $(b,--phase), which names its own.")
  in
  let sites =
    Arg.(value & opt positive_int 4 & info [ "sites" ] ~doc:"Sites.")
  in
  let items =
    Arg.(value & opt positive_int 24 & info [ "items" ] ~doc:"Logical items.")
  in
  let replication =
    Arg.(value & opt positive_int 2
         & info [ "replication" ] ~doc:"Copies per item.")
  in
  let size_min =
    Arg.(value & opt positive_int 1 & info [ "size-min" ] ~doc:"Min st.")
  in
  let size_max =
    Arg.(value & opt positive_int 3 & info [ "size-max" ] ~doc:"Max st.")
  in
  let read_fraction =
    Arg.(value & opt fraction 0.5
         & info [ "read-fraction" ] ~doc:"Read fraction.")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"RNG seed.") in
  let mix =
    Arg.(value
         & opt
             (some ~none:"2PL,T/O,PA"
                (checked ~what:"a non-empty protocol list" (fun l -> l <> [])
                   (list protocol_conv)))
             None
         & info [ "mix" ]
             ~doc:
               "Protocol mix, even weights; only $(b,unified) and \
                $(b,full-lock) draw each transaction's protocol from it.")
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
         & opt
             (some
                ~none:
                  (Format.asprintf "%a" print
                     Ccdb_protocols.Deadlock.default_detection)
                (conv (parse, print)))
             None
         & info [ "detection" ]
             ~doc:
               "Deadlock detection: centralized:INTERVAL or \
                edge-chasing:DELAY, in simulated time units, at least 1 (a \
                tenth of a network hop); not in pure-to, pure-pa, pure-mvto \
                or pure-cto, which hold no locks.")
  in
  let prevention =
    let module T = Ccdb_protocols.Two_pl_system in
    let names =
      [ ("none", T.No_prevention); ("wait-die", T.Wait_die);
        ("wound-wait", T.Wound_wait) ]
    in
    let parse s =
      Option.to_result ~none:(`Msg "expected none, wait-die or wound-wait")
        (List.assoc_opt (String.lowercase_ascii s) names)
    in
    let print ppf p =
      Format.pp_print_string ppf (fst (List.find (fun (_, q) -> q = p) names))
    in
    Arg.(value & opt (conv (parse, print)) T.No_prevention
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
    Arg.(value & flag
         & info [ "audit" ]
             ~doc:
               "Audit the run against the paper's invariants (semi-lock \
                compatibility, precedence conditions E1/E2, the deadlock and \
                restart theorems, serializability, and with a fail-stop \
                plan durability and consensus) and print the report: its \
                summary, then one line per finding.  Unless \
                $(b,--no-store-check) is given, in every mode but \
                pure-mvto, its serializability verdict must match the \
                store checks', or it reports an audit.divergence error.  \
                Exits 1 on an error finding.")
  in
  let no_store_check =
    Arg.(value & flag
         & info [ "no-store-check" ]
             ~doc:
               "Skip the run summary's whole-history store checks (the \
                $(i,serializable) and $(i,replicas ok) lines): its \
                serializability check re-scans every log pair, prohibitive \
                at millions of transactions.  Only those are skipped, and \
                with them the audit's cross-check against that scan.  With \
                $(b,--audit), in every mode but pure-mvto, the streaming \
                audit still decides conflict serializability from its \
                incremental conflict graph, and still checks replica \
                convergence and durability over the final store at the end \
                of the run, in time linear in the logs (EXPERIMENTS.md \
                E13).")
  in
  let commit =
    let parse s =
      match String.split_on_char ':' (String.lowercase_ascii s) with
      | [ "2pc" ] -> Ok (Ccdb_protocols.Runtime.Paxos { f = 0 })
      | [ "paxos" ] -> Ok (Ccdb_protocols.Runtime.Paxos { f = 1 })
      | [ "paxos"; k ] -> (
        match int_of_string_opt k with
        | Some f when f >= 0 -> Ok (Ccdb_protocols.Runtime.Paxos { f })
        | _ -> Error (`Msg (Printf.sprintf "bad fault tolerance %S" k)))
      | _ -> Error (`Msg "expected 2pc, paxos or paxos:F")
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
  let adaptive =
    Arg.(value & opt (some ~none:"cumulative" adaptive_conv) None
         & info [ "adaptive" ] ~docv:"SOURCE"
             ~doc:
               "STL parameter source of the dynamic mode's selector: \
                $(b,cumulative), $(b,configured) or $(b,measured:WINDOW) \
                (sliding-window width in simulated time units).")
  in
  let reselect =
    Arg.(value & flag
         & info [ "reselect" ]
             ~doc:
               "Re-run the dynamic mode's selector when a transaction \
                restarts.")
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
  let insights =
    Arg.(value
         & opt ~vopt:(Some None) (some (some string)) None
         & info [ "insights" ] ~docv:"FILE"
             ~doc:
               "Observe the run with the insights collector and print its \
                top fingerprints, hottest items and 500-unit windows; with \
                $(docv), also write its ccdb-insights/1 document there \
                (OBSERVABILITY.md).  A document that fails its schema \
                check, also after a print/parse round-trip, exits 1.")
  in
  let run mode lambda txns sites items repl size_min size_max qr seed mix
      detection prevention twr audit no_store_check commit plan adaptive
      reselect phases insights () =
    (* A flag the chosen mode would ignore is refused, not dropped. *)
    let ignored flag ~used_in =
      usage_error "%s has no effect in --mode %s; it applies to %s" flag
        (D.mode_name mode) used_in
    in
    if prevention <> Ccdb_protocols.Two_pl_system.No_prevention
       && mode <> D.Pure Ccdb_model.Protocol.Two_pl
    then ignored "--prevention" ~used_in:"pure-2pl";
    if twr && mode <> D.Pure Ccdb_model.Protocol.T_o then
      ignored "--thomas-write-rule" ~used_in:"pure-to";
    (match (detection, mode) with
     | Some _, (D.Pure Ccdb_model.Protocol.(T_o | Pa) | D.Mvto | D.Conservative)
       ->
       ignored "--detection" ~used_in:"the modes that lock"
     | _ -> ());
    (match (mix, mode) with
     | None, _ | Some _, (D.Unified | D.Unified_full_lock) -> ()
     | Some _, _ -> ignored "--mix" ~used_in:"unified and full-lock");
    if (Option.is_some adaptive || reselect) && mode <> D.Dynamic then
      ignored "--adaptive or --reselect" ~used_in:"dynamic";
    if mode = D.Conservative && sites > max_cto_sites then
      usage_error "--sites %d exceeds the %d sites a pure-cto run may hold"
        sites max_cto_sites;
    if Option.is_some txns && phases <> [] then
      usage_error "--txns: each --phase names its own count (txns=N)";
    (match (commit, plan) with
     | Some _, Some p when Ccdb_sim.Fault_plan.wipe p -> ()
     | Some _, _ ->
       usage_error
         "--commit needs a fail-stop --plan (wipe=true): no other run \
          commits through a commit protocol"
     | None, _ -> ());
    let spec =
      { Ccdb_workload.Generator.default with
        arrival_rate = lambda;
        size_min;
        size_max;
        read_fraction = qr;
        protocol_mix =
          List.map
            (fun p -> (p, 1.))
            (Option.value mix ~default:Ccdb_model.Protocol.all) }
    in
    let phases = List.map (fun p -> (p.over spec, p.ph_txns)) phases in
    let txns =
      match phases with
      | [] -> Option.value txns ~default:400
      | phases -> List.fold_left (fun n (_, k) -> n + k) 0 phases
    in
    let setup =
      { D.default_setup with
        sites; items; replication = repl; seed;
        commit = Option.value commit ~default:D.default_setup.commit;
        detection = Option.value detection ~default:D.default_setup.detection;
        prevention; thomas_write_rule = twr;
        adaptive = Option.value adaptive ~default:D.default_setup.adaptive;
        reselect }
    in
    List.iter
      (fun (spec, _) -> check_setup setup spec)
      (if phases = [] then [ (spec, txns) ] else phases);
    Option.iter (check_plan ~sites) plan;
    Option.iter (Option.iter (check_writable "--insights")) insights;
    let collector = ref None in
    let observer =
      Option.map
        (fun _ rt ->
          collector :=
            Some (Ccdb_insights.Collector.attach ~window:insights_window rt))
        insights
    in
    let verify_store = not no_store_check in
    let r =
      match phases with
      | [] ->
        D.run ~setup ~n_txns:txns ?observer ~audit ?faults:plan ~verify_store
          mode spec
      | phases ->
        D.run_phases ~setup ?observer ~audit ?faults:plan ~verify_store mode
          phases
    in
    let s = r.summary in
    let field label fmt = Format.printf ("%-17s" ^^ fmt ^^ "@.") label in
    field "mode:" "%s" (D.mode_name mode);
    if Option.is_some adaptive || reselect then
      field "adaptive:" "%a%s" (Arg.conv_printer adaptive_conv) setup.adaptive
        (if reselect then " + reselect-on-restart" else "");
    Option.iter (field "fault plan:" "%a" Ccdb_sim.Fault_plan.pp) plan;
    (match phases with
     | [] -> field "workload:" "%a" Ccdb_workload.Generator.pp_spec spec
     | phases ->
       List.iteri
         (fun i (spec, n) ->
           field (Printf.sprintf "phase %d:" (i + 1)) "%d txns, %a" n
             Ccdb_workload.Generator.pp_spec spec)
         phases);
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
    let insights_ok =
      Option.fold !collector ~none:true ~some:(fun c ->
          print_insights c;
          let doc = Ccdb_insights.Collector.to_json c in
          let text = Ccdb_util.Json.to_string ~indent:2 doc in
          Option.iter
            (fun path ->
              Out_channel.with_open_text path (fun oc ->
                  output_string oc (text ^ "\n"));
              Format.printf "@.(wrote %s)@." path)
            (Option.join insights);
          (* checked as built and after a print/parse round-trip *)
          match
            ( Ccdb_insights.Collector.validate doc,
              Result.bind (Ccdb_util.Json.of_string text)
                Ccdb_insights.Collector.validate )
          with
          | Ok (), Ok () ->
            Format.printf "schema check: ok (%s)@."
              Ccdb_insights.Collector.schema_version;
            true
          | Error e, _ | _, Error e ->
            Format.eprintf "insights schema check FAILED: %s@." e;
            false)
    in
    if s.committed <> txns
       || not (s.serializable && s.replica_consistent && audit_clean
               && insights_ok)
    then exit 1
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:
         "Run one simulation and print its metrics: plain, audited \
          ($(b,--audit)), under a fault plan ($(b,--plan)), which adds the \
          transport counters, and with $(b,wipe=true) the durability and \
          recovery counters, or observed by the insights collector \
          ($(b,--insights)).  Exits 1 if a transaction fails to commit, the \
          store checks fail, the audit finds an error or the insights \
          document fails its schema check.")
    (reported
       Term.(
         const run $ mode $ lambda $ txns $ sites $ items $ replication
         $ size_min $ size_max $ read_fraction $ seed $ mix $ detection
         $ prevention $ twr $ audit $ no_store_check $ commit $ plan
         $ adaptive $ reselect $ phases $ insights))

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
         & opt positive_int (Ccdb_harness.Parallel.cores ())
         & info [ "jobs"; "j" ] ~docv:"N"
             ~doc:
               "Fan independent experiment points across $(docv) domains \
                (default and maximum: the recommended domain count, but at \
                least 2 when $(docv) > 1).  Output is byte-identical for \
                every job count; 1 takes the plain serial path.")
  in
  let run quick only csv_dir jobs () =
    let jobs = Ccdb_harness.Parallel.clamp_jobs ~prog:"ccdb_cli" jobs in
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
    let csv_path id =
      Option.map
        (fun dir -> Filename.concat dir (String.lowercase_ascii id ^ ".csv"))
        csv_dir
    in
    List.iter
      (fun s ->
        Option.iter (check_writable "--csv")
          (csv_path (Ccdb_harness.Experiments.id s)))
      chosen;
    List.iter
      (fun (o : Ccdb_harness.Experiments.outcome) ->
        print_endline (Ccdb_harness.Experiments.render o);
        print_newline ();
        Option.iter
          (fun path ->
            Out_channel.with_open_text path (fun oc ->
                output_string oc (Ccdb_util.Table.to_csv o.table));
            Printf.printf "(wrote %s)\n\n" path)
          (csv_path o.id))
      (Ccdb_harness.Parallel.experiments ~jobs chosen)
  in
  Cmd.v
    (Cmd.info "experiments"
       ~doc:"Regenerate the paper-reproduction tables (E1-E14, E16, X1-X7).")
    (reported Term.(const run $ quick $ only $ csv_dir $ jobs))

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
    let block = Ccdb_stl.Stl_model.lambda_block p ~lambda_loss:loss in
    let delta = Ccdb_stl.Stl_model.delta p in
    let lower = loss *. horizon and upper = lambda_a *. horizon in
    (* Finite inputs can still overflow a product. *)
    List.iter
      (fun (what, x, flags) ->
        if not (Float.is_finite x) then
          usage_error "%s is %g: %s are too large" what x flags)
      [ ("STL'", v, "the rates, --k, --loss and --horizon");
        ("lambda_block", block, "--lambda-a, --k and --loss");
        ("delta per block", delta, "--lambda-r and --lambda-w");
        ("the lower bound", lower, "--loss and --horizon");
        ("the upper bound", upper, "--lambda-a and --horizon") ];
    (* %f spells out every digit (309 of them at 1e308), so a magnitude of
       10^9 or more prints in scientific notation *)
    let num ?(decimals = 4) x =
      if Float.abs x >= 1e9 then Printf.sprintf "%.4e" x
      else Printf.sprintf "%.*f" decimals x
    in
    Format.printf "STL'(%s, %s) = %s@." (num ~decimals:3 loss)
      (num ~decimals:1 horizon) (num v);
    Format.printf "lambda_block    = %s@." (num block);
    Format.printf "delta per block = %s@." (num delta);
    Format.printf "bounds: [%s, %s]@." (num lower) (num upper)
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
          [ run_cmd; experiments_cmd; stl_cmd ]))
