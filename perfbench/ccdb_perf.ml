(* Wall-clock throughput of the simulator on four fixed workloads.

   One invocation runs one workload for a fixed wall-clock window.  It
   simulates a stream of independent workload instances, each drawn from its
   own seed derived from --seed, and checks every one: every transaction
   committed, a clean streaming audit and a valid insights document where
   those layers are on.  An untimed instance before the window and another
   after it are also checked for conflict-serializability and replica
   consistency (Metrics.summarize ~verify:true), which costs several times
   the simulation itself.  The last line of standard output is one JSON
   object:

     {"correct": .., "attempted": .., "failed": .., "metrics": {..}}

   Host speed.  On a shared machine the host's speed drifts by up to half
   over seconds, driven by neighbours on the same cores.  Before every
   instance the benchmark times a fixed kernel of its own ([calibrate]: a
   miniature event loop), and scales the instance's wall time to a host on
   which that kernel takes [nominal_calibration_ns].  Every time reported
   is scaled this way except [host_commits_per_s] and [calibration_ms],
   which give the raw figures.  The kernel is not part of the program, so
   a change to the program moves the scaled times as much as the raw ones.

   --trace 0 reports the end-to-end metrics of the workload as configured,
   each a median over instances: commits per second, words allocated per
   commit, and set-up time (from the call into the driver until the first
   simulated event fires: workload generation, catalog, runtime, system,
   arrival scheduling).

   --trace 1 reports per-layer metrics.  The window round-robins over the
   workload as configured and six layer variants of one fixed mix: a bare
   core (unified system, no audit, no insights, no fault plan) and the core
   with exactly one layer added.  Differences of wall time per commit
   attribute cost to the audit, insights, transport and commit layers.
   commit_us_p90 is the workload's 90th percentile over instances.  The
   work counts of the workload's first instance (engine events, messages,
   runtime events, restarts, allocated words, simulated system time; WAL
   appends from the 2PC variant) repeat exactly for a given seed.

   Usage: ccdb_perf.exe --workload NAME --seed N --seconds S --trace 0|1 *)

module D = Ccdb_harness.Driver
module Rt = Ccdb_protocols.Runtime
module G = Ccdb_workload.Generator
module P = Ccdb_model.Protocol

type workload = {
  name : string;
  mode : D.mode;
  spec : G.spec;
  setup : D.setup;
  n_txns : int;
  plan : string option;
      (* fault plan in the Fault_plan grammar, without its seed token *)
  audit : bool;     (* streaming invariant audit online *)
  insights : bool;  (* insights collector attached, document built *)
}

let core =
  { name = "core";
    mode = D.Unified;
    spec =
      { G.default with
        arrival_rate = 0.2;
        protocol_mix = [ (P.Two_pl, 1.); (P.T_o, 1.); (P.Pa, 1.) ] };
    setup = D.default_setup;
    n_txns = 2000;
    plan = None;
    audit = false;
    insights = false }

let paxos setup = { setup with D.commit = Rt.Paxos { f = 1 } }

(* The unified system with the streaming audit and insights online, on
   the 2PL / PA mix: with T/O in the mix the precedence audit reports a
   rare prec.e1-write-order error (about one 2000-transaction instance in
   a hundred), after a T/O read is aborted and discarded and an older T/O
   write is then implemented. *)
let audited =
  { core with
    name = "audited";
    spec = { core.spec with protocol_mix = [ (P.Two_pl, 1.); (P.Pa, 1.) ] };
    audit = true;
    insights = true }

(* Instance sizes keep one instance under ~100 ms, so a window holds a
   hundred or more instances and their medians settle. *)
let workloads =
  [ (* the paper's unified system on an even 2PL / T/O / PA mix: engine,
       network and the semi-lock queues only *)
    { core with name = "unified" };
    (* the same transactions on the standalone 2PL baseline: the lock
       table and deadlock detector in place of the semi-lock queues *)
    { core with name = "pure-2pl"; mode = D.Pure P.Two_pl };
    audited;
    (* lossy links and fail-stop crashes of a plain site, the coordinator
       and an acceptor, committed through Paxos Commit *)
    { core with
      name = "durable-paxos";
      n_txns = 100;
      setup = paxos core.setup;
      plan =
        Some
          "drop=0.05,dup=0.02,crash=1@100+100,crash=coordinator@250+100,\
           crash=acceptor:2@400+100,wipe=true" } ]

(* ---- clocks ---------------------------------------------------------------- *)

let now_ns () = Int64.to_float (Monotonic_clock.now ())

(* A miniature discrete-event loop owned by the benchmark: timed closures
   in a balanced-tree queue, per-item lists in a hashtable, short-lived
   allocation.  It is the simulator's kind of work, so host slowdowns hit
   both alike; it calls nothing in the program. *)
module Agenda = Map.Make (struct
  type t = float * int

  let compare = compare
end)

let calibrate () =
  let x = ref 12345 in
  let next () =
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    !x
  in
  let holders = Hashtbl.create 64 in
  let queue = ref Agenda.empty and seq = ref 0 in
  let rec step id at n =
    if n > 0 then begin
      incr seq;
      queue :=
        Agenda.add
          (at +. float_of_int (next () land 15), !seq)
          (fun now ->
            let item = next () land 255 in
            let held =
              Option.value ~default:[] (Hashtbl.find_opt holders item)
            in
            Hashtbl.replace holders item
              (id :: List.filteri (fun i _ -> i < 3) held);
            step id now (n - 1))
          !queue
    end
  in
  for id = 1 to 1_000 do
    step id (float_of_int id) 6
  done;
  while not (Agenda.is_empty !queue) do
    let ((now, _) as key), fire = Agenda.min_binding !queue in
    queue := Agenda.remove key !queue;
    fire now
  done

let nominal_calibration_ns = 6e6

(* ---- statistics ------------------------------------------------------------ *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* nearest-rank quantile *)
let quantile q xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else a.(max 0 (min (n - 1) (int_of_float (ceil (q *. float_of_int n)) - 1)))

(* ---- one simulated instance ------------------------------------------------ *)

type sample = {
  wall_ns : float;      (* Driver.run (+ insights document), set-up included *)
  setup_ns : float;     (* from the call until the first event fires *)
  verify_ns : float;    (* post-hoc store checks; nan when not verified *)
  calibration_ns : float;  (* kernel time around this instance *)
  committed : int;
  mean_system_time : float;  (* the paper's S, in simulated time *)
  events : int;         (* engine events fired *)
  messages : int;       (* network messages sent *)
  restarts : int;
  wal_appends : int;
  minor_words : float;  (* allocated in the minor heap *)
  major_words : float;  (* allocated in or promoted to the major heap *)
  promoted_words : float;
  ok : bool;            (* every output check passed *)
}

(* [x] nanoseconds measured next to [s], scaled to the nominal host *)
let scaled s x = x *. nominal_calibration_ns /. s.calibration_ns

let instance_seed ~seed i = (seed * 100_003) + i

let fault_plan w ~sim_seed =
  Option.map
    (fun text ->
      let text = Printf.sprintf "%s,seed=%d" text (sim_seed land 0x3fffffff) in
      match Ccdb_sim.Fault_plan.of_string text with
      | Ok p -> p
      | Error e -> failwith ("bad fault plan: " ^ e))
    w.plan

let simulate ?on_event ~verify w ~sim_seed =
  let setup = { w.setup with D.seed = sim_seed } in
  let faults = fault_plan w ~sim_seed in
  let first_event = ref nan in
  let collector = ref None in
  let observer rt =
    if w.insights then collector := Some (Ccdb_insights.Collector.attach rt);
    Option.iter (Rt.subscribe rt) on_event;
    (* the observer runs on the fresh runtime, before the system is built
       and the arrivals are scheduled: this probe is the first event to
       fire, so it marks where set-up ends and simulation begins *)
    ignore
      (Ccdb_sim.Engine.schedule (Rt.engine rt) ~after:0. (fun () ->
           first_event := now_ns ()))
  in
  let c0 = now_ns () in
  calibrate ();
  let calibration_ns = now_ns () -. c0 in
  Gc.full_major ();
  let minor0, promoted0, major0 = Gc.counters () in
  let t0 = now_ns () in
  let r =
    D.run ~setup ~n_txns:w.n_txns ~observer ~audit:w.audit ?faults
      ~verify_store:false w.mode w.spec
  in
  let doc = Option.map Ccdb_insights.Collector.to_json !collector in
  let t1 = now_ns () in
  let minor1, promoted1, major1 = Gc.counters () in
  let s = r.D.summary in
  let failures =
    List.filter_map Fun.id
      [ (if s.committed = w.n_txns then None
         else Some (Printf.sprintf "%d of %d committed" s.committed w.n_txns));
        (match r.D.audit with
         | Some report when not (Ccdb_analysis.Report.is_clean report) ->
           Some ("audit: " ^ Ccdb_analysis.Report.summary report)
         | _ -> None);
        (match doc with
         | Some d -> (
           match Ccdb_insights.Collector.validate d with
           | Ok () -> None
           | Error e -> Some ("insights: " ^ e))
         | None -> None) ]
  in
  let failures, verify_ns =
    if verify then
      let checked = Ccdb_harness.Metrics.summarize ~verify:true r.D.runtime in
      let verify_ns = now_ns () -. t1 in
      ( failures
        @ (if checked.serializable then [] else [ "not serializable" ])
        @ (if checked.replica_consistent then [] else [ "replicas diverge" ]),
        verify_ns )
    else (failures, nan)
  in
  if failures <> [] then
    Printf.eprintf "%s instance seed %d failed: %s\n%!" w.name sim_seed
      (String.concat "; " failures);
  { wall_ns = t1 -. t0;
    setup_ns = !first_event -. t0;
    verify_ns;
    calibration_ns;
    committed = s.committed;
    mean_system_time = s.mean_system_time;
    events = Ccdb_sim.Engine.processed (Rt.engine r.D.runtime);
    messages = Ccdb_sim.Net.messages_sent (Rt.net r.D.runtime);
    restarts = (Rt.counters r.D.runtime).restarts;
    wal_appends =
      (match s.recovery with Some rc -> rc.wal_appends | None -> 0);
    minor_words = minor1 -. minor0;
    major_words = major1 -. major0;
    promoted_words = promoted1 -. promoted0;
    ok = failures = [] }

(* ---- the measured window --------------------------------------------------- *)

type window = {
  first : sample array;        (* per variant: verified, before the window *)
  timed : sample list array;   (* per variant, newest first *)
  last : sample array;         (* per variant: verified, after the window *)
}

(* Round-robin over the variants, one fresh instance each, until the
   window closes; the verified instances around it are not timed.  A single
   kernel timing is noisy, so each instance is scaled by the median of the
   last [smoothing] kernels timed, across variants: host phases last
   seconds, longer than that. *)
let smoothing = 5

let run_window ~seconds ~seed variants =
  let recent = Queue.create () in
  let simulate ~verify w ~sim_seed =
    let s = simulate ~verify w ~sim_seed in
    Queue.push s.calibration_ns recent;
    if Queue.length recent > smoothing then ignore (Queue.pop recent);
    { s with
      calibration_ns = median (List.of_seq (Queue.to_seq recent)) }
  in
  let verified i =
    Array.map
      (fun w -> simulate ~verify:true w ~sim_seed:(instance_seed ~seed i))
      variants
  in
  let first = verified 0 in
  let timed = Array.make (Array.length variants) [] in
  let deadline = now_ns () +. (seconds *. 1e9) in
  let i = ref 1 in
  while now_ns () < deadline do
    Array.iteri
      (fun k w ->
        timed.(k) <-
          simulate ~verify:false w ~sim_seed:(instance_seed ~seed !i)
          :: timed.(k))
      variants;
    incr i
  done;
  let last = verified !i in
  Array.iteri
    (fun k ss ->
      let med f = median (List.map f ss) in
      Printf.eprintf
        "%s: %d instances, %.2f ms each (%.2f ms scaled), set-up %.3f ms, \
         calibration %.3f ms\n%!"
        variants.(k).name (List.length ss)
        (med (fun s -> s.wall_ns /. 1e6))
        (med (fun s -> scaled s s.wall_ns /. 1e6))
        (med (fun s -> s.setup_ns /. 1e6))
        (med (fun s -> s.calibration_ns /. 1e6)))
    timed;
  { first; timed; last }

let tally variants win =
  let attempted = ref 0 and failed = ref 0 in
  let add k s =
    attempted := !attempted + variants.(k).n_txns;
    if not s.ok then failed := !failed + variants.(k).n_txns
  in
  Array.iteri add win.first;
  Array.iteri (fun k ss -> List.iter (add k) ss) win.timed;
  Array.iteri add win.last;
  (!attempted, !failed)

(* ---- result ---------------------------------------------------------------- *)

type metric = { m_name : string; m_value : float; m_unit : string }

let m m_name m_unit m_value = { m_name; m_value; m_unit }

let print_result ~attempted ~failed metrics =
  let metric m =
    Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" m.m_name m.m_value
      m.m_unit
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (failed = 0) attempted failed
    (String.concat ", " (List.map metric metrics))

let per_commit x s = x /. float_of_int s.committed
let us_per_commit s = per_commit (scaled s s.wall_ns /. 1e3) s

let end_to_end w ~seconds ~seed =
  let variants = [| w |] in
  let win = run_window ~seconds ~seed variants in
  let ss = win.timed.(0) in
  let attempted, failed = tally variants win in
  print_result ~attempted ~failed
    [ m "commits_per_s" "1/s" (1e6 /. median (List.map us_per_commit ss));
      m "alloc_words_per_commit" "words"
        (median
           (List.map
              (fun s ->
                per_commit (s.minor_words +. s.major_words -. s.promoted_words) s)
              ss));
      m "setup_s" "s"
        (median (List.map (fun s -> scaled s s.setup_ns /. 1e9) ss)) ]

(* The layer variants run on the audited workload's transactions, whichever
   workload is traced, so that adding the audit finds nothing to report. *)
let per_layer w ~seconds ~seed =
  let bare =
    { audited with name = "core"; audit = false; insights = false; n_txns = 1000 }
  in
  let with_plan name plan = { bare with name; plan = Some plan } in
  let variants =
    [| w;
       bare;
       { bare with name = "core+audit"; audit = true };
       { bare with name = "core+insights"; insights = true };
       with_plan "core+transport" "drop=0";
       with_plan "core+2pc" "wipe=true";
       { (with_plan "core+paxos" "wipe=true") with setup = paxos bare.setup } |]
  in
  (* an untimed rerun of the first instance counts the runtime events *)
  let runtime_events = ref 0 in
  let counted =
    simulate ~verify:false w ~sim_seed:(instance_seed ~seed 0)
      ~on_event:(fun _ -> incr runtime_events)
  in
  let win = run_window ~seconds ~seed variants in
  let attempted, failed = tally variants win in
  let timed k f = median (List.map f win.timed.(k)) in
  let cost k = timed k us_per_commit in
  let first = win.first.(0) in
  let count x = per_commit (float_of_int x) first in
  let verify_us s = per_commit (scaled s s.verify_ns /. 1e3) s in
  print_result ~attempted:(attempted + w.n_txns)
    ~failed:(if counted.ok then failed else failed + w.n_txns)
    [ m "host_commits_per_s" "1/s"
        (timed 0 (fun s -> float_of_int s.committed /. (s.wall_ns /. 1e9)));
      m "commit_us_p90" "us" (quantile 0.9 (List.map us_per_commit win.timed.(0)));
      m "calibration_ms" "ms" (timed 0 (fun s -> s.calibration_ns /. 1e6));
      m "events_per_s" "1/s"
        (timed 0 (fun s -> float_of_int s.events /. (scaled s s.wall_ns /. 1e9)));
      m "core_us_per_commit" "us" (cost 1);
      m "audit_us_per_commit" "us" (cost 2 -. cost 1);
      m "insights_us_per_commit" "us" (cost 3 -. cost 1);
      m "transport_us_per_commit" "us" (cost 4 -. cost 1);
      m "commit_2pc_us_per_commit" "us" (cost 5 -. cost 4);
      m "commit_paxos_us_per_commit" "us" (cost 6 -. cost 4);
      m "verify_us_per_commit" "us"
        (median [ verify_us first; verify_us win.last.(0) ]);
      m "events_per_commit" "count" (count first.events);
      m "messages_per_commit" "count" (count first.messages);
      m "runtime_events_per_commit" "count" (count !runtime_events);
      m "restarts_per_commit" "count" (count first.restarts);
      m "wal_appends_per_commit" "count"
        (per_commit (float_of_int win.first.(5).wal_appends) win.first.(5));
      m "minor_words_per_event" "words"
        (first.minor_words /. float_of_int first.events);
      m "major_words_per_event" "words"
        (first.major_words /. float_of_int first.events);
      m "mean_system_time" "simtime" first.mean_system_time ]

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10. in
  let trace = ref 0 in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N seed the workload instances derive from");
      ("--seconds", Arg.Set_float seconds, "S length of the measured window");
      ("--trace", Arg.Set_int trace,
       "0|1 end-to-end (0) or per-layer (1) metrics") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "ccdb_perf.exe --workload NAME --seed N --seconds S --trace 0|1";
  match List.find_opt (fun w -> w.name = !workload) workloads with
  | None ->
    Printf.eprintf "unknown workload %S (one of: %s)\n" !workload
      (String.concat ", " (List.map (fun w -> w.name) workloads));
    exit 2
  | Some w ->
    if !trace = 0 then end_to_end w ~seconds:!seconds ~seed:!seed
    else per_layer w ~seconds:!seconds ~seed:!seed
