(* The benchmark binary: regenerates every reproduced experiment table
   (E1-E14, E16 and X1-X7, see DESIGN.md section 5 and EXPERIMENTS.md) and
   runs bechamel micro-benchmarks of the core data structures.

   Run with: dune exec bench/main.exe
   Pass --quick for reduced transaction counts and --micro-only /
   --exp-only to select one half.  One simulation, audited or observed by
   the insights collector, is [ccdb_cli run --audit] or [--insights]. *)

let quick = ref false
let micro_only = ref false
let exp_only = ref false
let jobs = ref (Ccdb_harness.Parallel.cores ())
let json_path = ref None

let () =
  let specs =
    [ ("--quick", Arg.Set quick, " reduced transaction counts");
      ("--micro-only", Arg.Set micro_only, " only the micro-benchmarks");
      ("--exp-only", Arg.Set exp_only, " only the experiment tables");
      ("--jobs",
       Arg.Int
         (fun n ->
           if n < 1 then raise (Arg.Bad "--jobs: expected a positive integer");
           jobs := n),
       "N fan experiment points across N domains (default and maximum: \
        recommended domain count, but at least 2 when N > 1)");
      ("--json",
       Arg.String
         (fun p ->
           (* opened now (created if absent, never truncated), so a path
              that cannot be written is a usage error before any work *)
           match open_out_gen [ Open_wronly; Open_creat ] 0o644 p with
           | oc ->
             close_out oc;
             json_path := Some p
           | exception Sys_error e ->
             raise (Arg.Bad ("--json: cannot write " ^ e))),
       "FILE write a machine-readable baseline (ns/op, r^2, wall-clocks) \
        to FILE") ]
  in
  let usage = "usage: dune exec bench/main.exe -- [options]" in
  (* unknown flags and stray positional arguments are hard errors, so a
     misspelled flag can no longer be silently ignored *)
  Arg.parse (Arg.align specs)
    (fun anon -> raise (Arg.Bad (Printf.sprintf "unexpected argument %S" anon)))
    usage

let quick = !quick
let micro_only = !micro_only
let exp_only = !exp_only
let json_path = !json_path

(* at least 2 when asked for more than 1, so --json's serial-vs-parallel
   parity check runs whenever it is asked for *)
let jobs = Ccdb_harness.Parallel.clamp_jobs ~prog:"bench" !jobs

(* ----------------------------------------------------------- experiments *)

type exp_stats = {
  n_experiments : int;
  n_points : int;
  serial_s : float;
  (* (jobs, wall-clock, tables byte-identical to serial) when a parallel
     pass ran as well *)
  parallel : (int * float * bool) option;
}

let render_all outcomes =
  String.concat ""
    (List.map (fun o -> Ccdb_harness.Experiments.render o ^ "\n") outcomes)

let timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* With [--json] and [jobs] > 1 the suite runs twice — serially and at
   [jobs] domains — so the baseline records both wall-clocks and pins that
   the parallel tables are byte-identical.  Otherwise it runs once at
   [jobs]. *)
let run_experiments () =
  print_endline "=== Paper reproduction: one table per experiment ===";
  print_endline
    (if quick then "(quick mode: reduced transaction counts)\n" else "");
  let suite () = Ccdb_harness.Experiments.staged ~quick () in
  let staged = suite () in
  let n_experiments = List.length staged in
  let n_points =
    List.fold_left
      (fun acc s -> acc + Ccdb_harness.Experiments.points_count s)
      0 staged
  in
  let pass jobs =
    let outs, s =
      timed (fun () -> Ccdb_harness.Parallel.experiments ~jobs (suite ()))
    in
    (render_all outs, s)
  in
  let want_both = json_path <> None && jobs > 1 in
  let first_txt, first_s = pass (if want_both then 1 else jobs) in
  print_string first_txt;
  let parallel =
    if want_both then begin
      let par_txt, par_s = pass jobs in
      let identical = String.equal par_txt first_txt in
      Printf.printf
        "(suite wall-clock: %.2fs serial, %.2fs at %d jobs; tables %s)\n\n"
        first_s par_s jobs
        (if identical then "byte-identical" else "DIFFER");
      Some (jobs, par_s, identical)
    end
    else if jobs > 1 then
      (* a single parallel pass has no serial wall-clock to compare
         against; record what ran *)
      Some (jobs, first_s, true)
    else None
  in
  { n_experiments; n_points; serial_s = first_s; parallel }

(* ------------------------------------------------------ micro-benchmarks *)

(* 2PL, T/O and PA at equal weights *)
let even_mix = List.map (fun p -> (p, 1.)) Ccdb_model.Protocol.all

let bench_precedence_compare =
  let a = Ccdb_model.Precedence.timestamped ~ts:42 ~site:1 ~txn:7 in
  let b = Ccdb_model.Precedence.queue_local ~ts:42 ~arrival:3 in
  Bechamel.Test.make ~name:"precedence.compare"
    (Bechamel.Staged.stage (fun () ->
         ignore (Ccdb_model.Precedence.compare a b)))

let bench_semi_lock_cycle =
  (* one full request -> grant -> release cycle on a unified queue with a
     resident population of eight transactions *)
  Bechamel.Test.make ~name:"semi_lock_queue.cycle"
    (Bechamel.Staged.stage
       (let counter = ref 0 in
        let q = Core.Semi_lock_queue.create () in
        for i = 1 to 8 do
          ignore
            (Core.Semi_lock_queue.request q ~txn:(1_000_000 + i) ~site:0
               ~protocol:Ccdb_model.Protocol.Pa ~ts:(Some i) ~epoch:0
               ~op:Ccdb_model.Op.Read)
        done;
        Core.Semi_lock_queue.grant_ready q ~now:0.;
        fun () ->
          incr counter;
          let txn = !counter in
          ignore
            (Core.Semi_lock_queue.request q ~txn ~site:0
               ~protocol:Ccdb_model.Protocol.T_o
               ~ts:(Some (100 + !counter)) ~epoch:0 ~op:Ccdb_model.Op.Read);
          Core.Semi_lock_queue.grant_ready q ~now:1.;
          ignore (Core.Semi_lock_queue.release q ~txn : Core.Semi_lock_queue.entry)))

let bench_lock_table_cycle =
  (* one request -> grant sweep -> release cycle on a contended copy: a
     granted writer with sixteen readers queued behind it — the canonical
     hot-copy pattern, and the one where the grant sweep's complexity
     actually shows (every waiting read is checked against all the
     non-conflicting reads ahead of it before the blocking writer) *)
  Bechamel.Test.make ~name:"lock_table.cycle"
    (Bechamel.Staged.stage
       (let counter = ref 0 in
        let t = Ccdb_protocols.Lock_table.create () in
        let () =
          ignore
            (Ccdb_protocols.Lock_table.request t ~txn:1_000_000 ~attempt:0
               ~op:Ccdb_model.Op.Write);
          for i = 1 to 16 do
            ignore
              (Ccdb_protocols.Lock_table.request t ~txn:(1_000_000 + i)
                 ~attempt:0 ~op:Ccdb_model.Op.Read)
          done;
          ignore (Ccdb_protocols.Lock_table.grant_ready t)
        in
        fun () ->
          incr counter;
          let txn = !counter in
          ignore
            (Ccdb_protocols.Lock_table.request t ~txn ~attempt:0
               ~op:Ccdb_model.Op.Read);
          ignore (Ccdb_protocols.Lock_table.grant_ready t);
          ignore (Ccdb_protocols.Lock_table.release t ~txn ~attempt:0)))

let bench_wal_append =
  (* one record forced to stable storage; the log is recycled every 4096
     appends so the measurement never degenerates into allocator pressure
     from an unbounded log *)
  Bechamel.Test.make ~name:"wal.append"
    (Bechamel.Staged.stage
       (let w = ref (Ccdb_storage.Wal.create ~sites:4) in
        let counter = ref 0 in
        fun () ->
          incr counter;
          if !counter land 4095 = 0 then w := Ccdb_storage.Wal.create ~sites:4;
          Ccdb_storage.Wal.append !w ~site:(!counter land 3) ~at:1.
            (Ccdb_storage.Wal.Grant
               { txn = !counter; item = 3; op = Ccdb_model.Op.Read;
                 ts = Some !counter })))

let bench_wal_replay =
  (* recovery scan of a 512-record site log shaped like a real one: mostly
     completed admit/grant/release triples, a tail of live grants and one
     in-doubt commit round with its acceptor's accepts and a takeover's
     promise, so every replay bucket is exercised *)
  Bechamel.Test.make ~name:"wal.replay-512"
    (Bechamel.Staged.stage
       (let w = Ccdb_storage.Wal.create ~sites:1 in
        let append r = Ccdb_storage.Wal.append w ~site:0 ~at:1. r in
        let () =
          for txn = 1 to 160 do
            append
              (Ccdb_storage.Wal.Admit
                 { txn; item = txn mod 24; op = Ccdb_model.Op.Read; ts = txn });
            append
              (Ccdb_storage.Wal.Grant
                 { txn; item = txn mod 24; op = Ccdb_model.Op.Read;
                   ts = Some txn });
            append
              (Ccdb_storage.Wal.Release
                 { txn; item = txn mod 24; op = Ccdb_model.Op.Read;
                   aborted = false })
          done;
          for txn = 161 to 185 do
            append
              (Ccdb_storage.Wal.Grant
                 { txn; item = txn mod 24; op = Ccdb_model.Op.Write;
                   ts = None })
          done;
          for i = 0 to 2 do
            append
              (Ccdb_storage.Wal.Prewrite
                 { txn = 200; round = 0;
                   action =
                     { Ccdb_storage.Wal.item = i; op = Ccdb_model.Op.Write;
                       value = Some 7; attempt = 0; granted_at = 1. } })
          done;
          append (Ccdb_storage.Wal.Vote { txn = 200; round = 0; coordinator = 0 });
          let accept instance ballot prepared =
            append
              (Ccdb_storage.Wal.Acceptor_accept
                 { txn = 200; round = 0; instance; ballot; prepared; home = 0;
                   psites = [ 0; 1 ] })
          in
          accept 0 0 true;
          append
            (Ccdb_storage.Wal.Acceptor_promise { txn = 200; round = 0; ballot = 4 });
          accept 1 4 false
        in
        fun () -> ignore (Ccdb_storage.Wal.replay w ~site:0)))

let bench_stl_eval =
  let params =
    { Ccdb_stl.Stl_model.lambda_a = 1.0; lambda_r = 0.04; lambda_w = 0.04;
      q_r = 0.5; k = 3. }
  in
  Bechamel.Test.make ~name:"stl'.evaluate"
    (Bechamel.Staged.stage (fun () ->
         ignore (Ccdb_stl.Stl_model.stl' params ~lambda_loss:0.3 ~u:40.)))

let bench_conflict_check =
  (* serializability check over a 100-transaction, 32-copy execution *)
  let logs =
    let rng = Ccdb_util.Rng.create ~seed:3 in
    List.init 32 (fun copy ->
        ( (copy, 0),
          List.init 24 (fun j ->
              { Ccdb_storage.Store.txn = 1 + Ccdb_util.Rng.int rng 100;
                kind =
                  (if Ccdb_util.Rng.bool rng then Ccdb_model.Op.Read
                   else Ccdb_model.Op.Write);
                at = float_of_int j }) ))
  in
  Bechamel.Test.make ~name:"conflict_graph.check"
    (Bechamel.Staged.stage (fun () ->
         ignore (Ccdb_serial.Check.conflict_serializable logs)))

(* A fixed 2048-edge wait-for snapshot (repeats included, as replicated
   copies report the same wait twice).  Waiters only wait on older
   transactions, so it is acyclic and a cycle search walks the whole
   graph.  Real scans find a cycle about as often as not (a third to a
   half of them on the perfbench workloads), which the cyclic twin below
   models. *)
let deadlock_snapshot =
  let rng = Ccdb_util.Rng.create ~seed:5 in
  List.init 2048 (fun _ ->
      let waiter = 2 + Ccdb_util.Rng.int rng 400 in
      (waiter, 1 + Ccdb_util.Rng.int rng (waiter - 1)))

let bench_deadlock_scan =
  (* the graph step of one centralized deadlock-detector scan, from the
     edge list: build the wait-for graph and search it for a cycle *)
  Bechamel.Test.make ~name:"deadlock.scan"
    (Bechamel.Staged.stage (fun () ->
         ignore
           (Ccdb_serial.Conflict_graph.find_cycle
              (Ccdb_serial.Conflict_graph.of_edges ~nodes:[]
                 ~edges:deadlock_snapshot))))

(* The detector's own path: the snapshot streamed into one reused
   [Builder], then the cycle search. *)
let deadlock_scan_reuse name edges =
  let module B = Ccdb_serial.Conflict_graph.Builder in
  let b = B.create () in
  Bechamel.Test.make ~name
    (Bechamel.Staged.stage (fun () ->
         B.clear b;
         List.iter (fun (x, y) -> B.add b x y) edges;
         ignore (Ccdb_serial.Conflict_graph.find_cycle (B.graph b))))

let bench_deadlock_scan_reuse =
  deadlock_scan_reuse "deadlock.scan-reuse" deadlock_snapshot

(* the same with one more edge, reversing the snapshot's first, which
   closes a 2-cycle *)
let bench_deadlock_scan_reuse_cyclic =
  let waiter, holder = List.hd deadlock_snapshot in
  deadlock_scan_reuse "deadlock.scan-reuse-cyclic"
    ((holder, waiter) :: deadlock_snapshot)

let bench_incremental_edge =
  (* one edge insertion + Pearce-Kelly acyclicity re-check on a live
     incremental graph over the same 100-transaction population as
     conflict_graph.check; the graph is recycled every 4096 insertions so
     the measurement never degenerates into an ever-denser graph *)
  Bechamel.Test.make ~name:"conflict_graph.check-incremental"
    (Bechamel.Staged.stage
       (let rng = ref (Ccdb_util.Rng.create ~seed:3) in
        let g = ref (Ccdb_serial.Incremental.create ()) in
        let counter = ref 0 in
        let prov =
          { Ccdb_serial.Incremental.item = 0; site = 0;
            from_op = Ccdb_model.Op.Write; to_op = Ccdb_model.Op.Read }
        in
        fun () ->
          incr counter;
          if !counter land 4095 = 0 then begin
            g := Ccdb_serial.Incremental.create ();
            rng := Ccdb_util.Rng.create ~seed:3
          end;
          let src = 1 + Ccdb_util.Rng.int !rng 100 in
          let dst = 1 + Ccdb_util.Rng.int !rng 100 in
          ignore (Ccdb_serial.Incremental.add_edge !g ~src ~dst ~prov)))

let bench_stream_feed =
  (* one real event through the whole streaming analyzer (semi-lock,
     precedence and theorem audits plus the incremental conflict graph
     with prefix GC); the events are a recorded 40-transaction unified
     run and the analyzer state is recreated at wrap *)
  let setup =
    { Ccdb_harness.Driver.default_setup with items = 12; sites = 3 }
  in
  let events =
    let tr = ref None in
    let spec =
      { Ccdb_workload.Generator.default with
        arrival_rate = 0.2;
        protocol_mix = even_mix }
    in
    ignore
      (Ccdb_harness.Driver.run ~setup ~n_txns:40
         ~observer:(fun rt -> tr := Some (Ccdb_harness.Trace.attach rt))
         Ccdb_harness.Driver.Unified spec);
    Ccdb_harness.Trace.to_array (Option.get !tr)
  in
  let catalog () =
    Ccdb_storage.Catalog.create ~items:setup.items ~sites:setup.sites
      ~replication:setup.replication
  in
  Bechamel.Test.make ~name:"analysis.stream-feed"
    (Bechamel.Staged.stage
       (let st = ref (Ccdb_analysis.Stream.create ~catalog:(catalog ()) ()) in
        let i = ref 0 in
        fun () ->
          if !i >= Array.length events then begin
            i := 0;
            st := Ccdb_analysis.Stream.create ~catalog:(catalog ()) ()
          end;
          Ccdb_analysis.Stream.feed !st events.(!i);
          incr i))

let bench_engine =
  (* 100 events at random times on a fresh engine, run until the queue is
     empty: the event heap's push, sift and pop *)
  Bechamel.Test.make ~name:"engine.push100+run"
    (Bechamel.Staged.stage
       (let rng = Ccdb_util.Rng.create ~seed:9 in
        fun () ->
          let e = Ccdb_sim.Engine.create () in
          for _ = 1 to 100 do
            ignore
              (Ccdb_sim.Engine.schedule e
                 ~after:(float_of_int (Ccdb_util.Rng.int rng 10_000))
                 ignore)
          done;
          Ccdb_sim.Engine.run e))

let bench_end_to_end =
  (* a whole small simulation: 40 mixed transactions through the unified
     system, to quiescence *)
  Bechamel.Test.make ~name:"unified.sim-40txn"
    (Bechamel.Staged.stage
       (let spec =
          { Ccdb_workload.Generator.default with
            arrival_rate = 0.2;
            protocol_mix = even_mix }
        in
        let setup =
          { Ccdb_harness.Driver.default_setup with items = 12; sites = 3 }
        in
        fun () ->
          ignore
            (Ccdb_harness.Driver.run ~setup ~n_txns:40
               Ccdb_harness.Driver.Unified spec)))

(* Atomic-commitment cost, timed as a whole run: one operation is a durable
   (wipe=true, otherwise fault-free) simulation of 16 multi-operation
   transactions through the unified system, so every commit drives a full
   round of Paxos Commit — at f = 0 (2PC: the one acceptor is the home
   site) and over three acceptors (f = 1).  Divide by 16 for a per-round
   figure.  Both rows share the workload and the durable-run fixed costs
   (WAL forces, vote collection), so their difference is the consensus
   premium DESIGN.md section 15 quantifies: each participant vote goes to
   three acceptors instead of one, and each accept returns a phase-2b
   message instead of a local step. *)
let bench_commit_run name commit =
  let spec =
    { Ccdb_workload.Generator.default with
      arrival_rate = 0.2;
      size_min = 2;
      size_max = 3;
      protocol_mix = even_mix }
  in
  let setup =
    { Ccdb_harness.Driver.default_setup with items = 12; sites = 3; commit }
  in
  let faults =
    match Ccdb_sim.Fault_plan.of_string "wipe=true,seed=7" with
    | Ok p -> p
    | Error e -> failwith e
  in
  Bechamel.Test.make ~name
    (Bechamel.Staged.stage (fun () ->
         ignore
           (Ccdb_harness.Driver.run ~setup ~n_txns:16 ~faults
              Ccdb_harness.Driver.Unified spec)))

let bench_2pc_run =
  bench_commit_run "commit.2pc-sim-16txn"
    (Ccdb_protocols.Runtime.Paxos { f = 0 })

let bench_paxos_run =
  bench_commit_run "commit.paxos-sim-16txn"
    (Ccdb_protocols.Runtime.Paxos { f = 1 })

(* A micro-benchmark result after the confidence pass below. *)
type micro_row = {
  m_name : string;
  m_ns : float;        (* ns per operation, OLS slope over (runs, time) *)
  m_r2 : float;        (* r^2 of that single-predictor fit *)
  m_kept : int;        (* samples surviving the outlier trim *)
  m_dropped : int;     (* samples trimmed as outliers *)
}

let confidence_line = 0.9

(* Bechamel's stock OLS fits every raw sample, including the cold-start
   ones taken at the smallest iteration counts and any sample a GC slice or
   scheduler preemption landed in — which is exactly what left wal.append
   at r^2 = 0.68 and analysis.stream-feed at 0.78 in the ccdb-bench/3
   baseline.  This pass (a) drops the earliest eighth of the samples as
   warmup on top of the discarded warmup run, then (b) trims samples whose
   per-iteration cost sits more than 5 MADs (with a 5% relative floor, so
   ultra-stable tests keep their samples) from the median, and (c) fits
   time = overhead + ns_per_op * runs — the intercept absorbs the fixed
   per-sample measurement cost (clock reads, loop setup) that otherwise
   wrecks the fit for operations in the tens of nanoseconds.  Rows still
   under the 0.9 line are flagged in the table and in BENCH.json rather
   than silently recorded. *)
let analyze_raw (b : Bechamel.Benchmark.t) =
  let label =
    Bechamel.Measure.label Bechamel.Toolkit.Instance.monotonic_clock
  in
  let samples =
    Array.to_list b.Bechamel.Benchmark.lr
    |> List.filter_map (fun m ->
           let runs = Bechamel.Measurement_raw.run m in
           if runs <= 0. then None
           else Some (runs, Bechamel.Measurement_raw.get ~label m))
  in
  (* never warm-drop more than half of what bechamel managed to take: a
     slow test under a large post-experiments heap can yield only a
     handful of samples *)
  let warm = min (max 3 (List.length samples / 8)) (List.length samples / 2) in
  let samples = List.filteri (fun i _ -> i >= warm) samples in
  let median l =
    let a = Array.of_list l in
    Array.sort compare a;
    a.(Array.length a / 2)
  in
  let med = median (List.map (fun (r, t) -> t /. r) samples) in
  let mad =
    median (List.map (fun (r, t) -> Float.abs ((t /. r) -. med)) samples)
  in
  let band = Float.max (5. *. mad) (0.05 *. Float.abs med) in
  let kept, rejected =
    List.partition
      (fun (r, t) -> Float.abs ((t /. r) -. med) <= band)
      samples
  in
  let kept = if kept = [] then samples else kept in
  let sum f = List.fold_left (fun acc x -> acc +. f x) 0. kept in
  let n = float_of_int (List.length kept) in
  let sx = sum (fun (r, _) -> r) and sy = sum (fun (_, t) -> t) in
  let sxx = sum (fun (r, _) -> r *. r) in
  let sxy = sum (fun (r, t) -> r *. t) in
  let denom = (n *. sxx) -. (sx *. sx) in
  let ns =
    if denom = 0. then sy /. Float.max sx 1.
    else ((n *. sxy) -. (sx *. sy)) /. denom
  in
  let intercept = (sy -. (ns *. sx)) /. n in
  let mean_t = sy /. n in
  let ss_res =
    sum (fun (r, t) ->
        let e = t -. (intercept +. (ns *. r)) in
        e *. e)
  in
  let ss_tot =
    sum (fun (_, t) ->
        let d = t -. mean_t in
        d *. d)
  in
  let r2 = if ss_tot = 0. then 1. else 1. -. (ss_res /. ss_tot) in
  (ns, r2, List.length kept, List.length rejected)

(* The host's speed drifts by up to half over seconds on a shared machine,
   so the micros are recorded next to the time of a fixed kernel that
   calls nothing in the program: a miniature event loop of timed closures
   in a balanced-tree queue, per-item lists in a hashtable and short-lived
   allocation, the simulator's kind of work.  It is the kernel perfbench
   scales by ([calibrate] in perfbench/ccdb_perf.ml, nominally 6 ms), so
   the two read on one scale: a BENCH.json whose micros and kernel both
   read slow was taken in a slow phase, not after a slower change. *)
module Agenda = Map.Make (struct
  type t = float * int

  let compare = compare
end)

let calibration_kernel () =
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

(* median of nine timings, in ms *)
let calibration_ms () =
  let times =
    Array.init 9 (fun _ -> snd (timed calibration_kernel) *. 1e3)
  in
  Array.sort compare times;
  times.(4)

let run_micro () =
  print_endline
    "=== Micro-benchmarks (warmed, outlier-trimmed, intercept-aware OLS) ===";
  let calibration = calibration_ms () in
  Printf.printf "(calibration kernel: %.3f ms)\n" calibration;
  let tests =
    Bechamel.Test.make_grouped ~name:"ccdb"
      [ bench_precedence_compare; bench_semi_lock_cycle; bench_lock_table_cycle;
        bench_wal_append; bench_wal_replay; bench_stl_eval;
        bench_conflict_check; bench_deadlock_scan; bench_deadlock_scan_reuse;
        bench_deadlock_scan_reuse_cyclic; bench_incremental_edge;
        bench_stream_feed;
        bench_engine; bench_end_to_end; bench_2pc_run; bench_paxos_run ]
  in
  let instances = Bechamel.Toolkit.Instance.[ monotonic_clock ] in
  (* discarded warmup pass: every staged closure runs until code, caches
     and branch predictors are hot before the measured pass starts *)
  let warm_cfg =
    Bechamel.Benchmark.cfg ~limit:500
      ~quota:(Bechamel.Time.second (if quick then 0.02 else 0.1))
      ()
  in
  ignore (Bechamel.Benchmark.all warm_cfg instances tests);
  (* a 10% geometric run-count growth from a 10-iteration start gives the
     regression a wide leverage range within the quota (the stock 1%
     growth keeps every sample at nearly the same x, so one noisy sample
     wrecked r^2 for the nanosecond-scale tests) *)
  let cfg =
    Bechamel.Benchmark.cfg ~limit:2000 ~start:10 ~sampling:(`Geometric 1.1)
      ~quota:(Bechamel.Time.second (if quick then 0.1 else 0.5))
      ()
  in
  let raw = Bechamel.Benchmark.all cfg instances tests in
  let rows =
    Hashtbl.fold
      (fun name b acc ->
        let ns, r2, kept, dropped = analyze_raw b in
        { m_name = name; m_ns = ns; m_r2 = r2; m_kept = kept;
          m_dropped = dropped }
        :: acc)
      raw []
    |> List.sort (fun a b -> compare a.m_name b.m_name)
  in
  let table =
    Ccdb_util.Table.create
      ~columns:
        [ ("benchmark", Ccdb_util.Table.Left); ("ns/op", Ccdb_util.Table.Right);
          ("r^2", Ccdb_util.Table.Right);
          ("samples", Ccdb_util.Table.Right);
          ("trimmed", Ccdb_util.Table.Right);
          ("note", Ccdb_util.Table.Left) ]
  in
  List.iter
    (fun r ->
      Ccdb_util.Table.add_row table
        [ r.m_name; Ccdb_util.Table.fmt_float ~decimals:1 r.m_ns;
          Ccdb_util.Table.fmt_float ~decimals:4 r.m_r2;
          string_of_int r.m_kept; string_of_int r.m_dropped;
          (if r.m_r2 < confidence_line then "LOW CONFIDENCE" else "") ])
    rows;
  print_string (Ccdb_util.Table.render table);
  (calibration, rows)

(* ------------------------------------------------------------------ json *)

let write_json path ~exp ~micro =
  let open Ccdb_util.Json in
  let calibration_j, micro_j =
    match micro with
    | None -> (Null, Null)
    | Some (calibration, rows) ->
      ( Num calibration,
        List
          (List.map
             (fun r ->
               Obj
                 [ ("name", Str r.m_name); ("ns_per_op", Num r.m_ns);
                   ("r_square", Num r.m_r2);
                   ("samples_kept", Num (float_of_int r.m_kept));
                   ("outliers_trimmed", Num (float_of_int r.m_dropped));
                   ("low_confidence", Bool (r.m_r2 < confidence_line)) ])
             rows) )
  in
  let exp_j =
    match exp with
    | None -> Null
    | Some e ->
      Obj
        ([ ("count", Num (float_of_int e.n_experiments));
           ("points", Num (float_of_int e.n_points));
           ("serial_wall_clock_s", Num e.serial_s) ]
         @
         match e.parallel with
         | None -> []
         | Some (n, par_s, identical) ->
           [ ("parallel_jobs", Num (float_of_int n));
             ("parallel_wall_clock_s", Num par_s);
             ("speedup", Num (e.serial_s /. par_s));
             ("identical_tables", Bool identical) ])
  in
  let doc =
    Obj
      [ ("schema", Str "ccdb-bench/8");
        ("quick", Bool quick);
        (* Parallel.cores: the parallelism actually available, so a
           speedup <= 1 here reads as "cores-limited", not "overhead" *)
        ("cores", Num (float_of_int (Ccdb_harness.Parallel.cores ())));
        ("jobs", Num (float_of_int jobs));
        (* the calibration kernel's median time, taken right before the
           micros *)
        ("calibration_ms", calibration_j);
        ("micro", micro_j);
        ("experiments", exp_j) ]
  in
  let oc = open_out path in
  output_string oc (to_string ~indent:2 doc);
  output_char oc '\n';
  close_out oc;
  Printf.printf "(wrote %s)\n" path

let () =
  (* micros run BEFORE the experiment suite: bechamel stabilizes the GC
     before every sample, which scales with the live major heap — after a
     full suite pass the stabilization eats the whole quota and leaves
     two polluted samples per test *)
  let micro = if not exp_only then Some (run_micro ()) else None in
  let exp = if not micro_only then Some (run_experiments ()) else None in
  match json_path with
  | None -> ()
  | Some path -> write_json path ~exp ~micro
