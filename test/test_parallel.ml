(* Tests for the performance layer: the domain pool, the parallel
   experiment runner (byte-identical tables at every job count), the JSON
   emitter behind BENCH.json, and an executable-specification check that
   the indexed Semi_lock_queue matches the naive list-based
   implementation it replaced, on thousands of randomized scripts. *)

module Pool = Ccdb_util.Pool
module Json = Ccdb_util.Json
module Q = Core.Semi_lock_queue

let check = Alcotest.check

(* --- Pool --------------------------------------------------------------- *)

(* the default job count, and the clamp every --jobs goes through *)
let test_pool_default_jobs () =
  let cores = Ccdb_harness.Parallel.cores () in
  check Alcotest.bool "at least one" true (cores >= 1);
  let clamp = Ccdb_harness.Parallel.clamp_jobs ~prog:"test_parallel" in
  check Alcotest.int "1 stays serial" 1 (clamp 1);
  check Alcotest.int "2 stays parallel" 2 (clamp 2);
  check Alcotest.int "at most the cores, at least 2" (max cores 2)
    (clamp max_int)

let test_pool_map_order () =
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs (fun p ->
          let xs = List.init 50 Fun.id in
          check (Alcotest.list Alcotest.int)
            (Printf.sprintf "squares at %d jobs" jobs)
            (List.map (fun x -> x * x) xs)
            (Pool.map p (fun x -> x * x) xs)))
    [ 1; 2; 3; 8 ]

let test_pool_reuse () =
  Pool.with_pool ~jobs:3 (fun p ->
      check (Alcotest.list Alcotest.int) "first" [ 2; 4 ]
        (Pool.map p (fun x -> 2 * x) [ 1; 2 ]);
      check (Alcotest.list Alcotest.int) "second" [] (Pool.map p Fun.id []);
      check (Alcotest.list Alcotest.string) "third" [ "a!" ]
        (Pool.map p (fun s -> s ^ "!") [ "a" ]))

exception Boom of int

let test_pool_exception () =
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs (fun p ->
          match
            Pool.map p
              (fun x -> if x mod 3 = 0 then raise (Boom x) else x)
              (List.init 10 (fun i -> i + 1))
          with
          | _ -> Alcotest.fail "expected an exception"
          | exception Boom x ->
            (* the smallest-index failure wins, for determinism *)
            check Alcotest.int
              (Printf.sprintf "first failure at %d jobs" jobs)
              3 x))
    [ 1; 4 ]

let test_pool_usable_after_failure () =
  Pool.with_pool ~jobs:2 (fun p ->
      (try ignore (Pool.map p (fun () -> failwith "x") [ () ])
       with Failure _ -> ());
      check (Alcotest.list Alcotest.int) "still works" [ 1; 2; 3 ]
        (Pool.map p Fun.id [ 1; 2; 3 ]))

(* --- Parallel experiments: byte-identical tables ------------------------ *)

let render_all outcomes =
  String.concat "\n"
    (List.map Ccdb_harness.Experiments.render outcomes)

let quick_suite () = Ccdb_harness.Experiments.staged ~quick:true ()

let test_experiments_jobs_identical () =
  let serial = Ccdb_harness.Parallel.experiments ~jobs:1 (quick_suite ()) in
  let parallel = Ccdb_harness.Parallel.experiments ~jobs:4 (quick_suite ()) in
  check Alcotest.int "same number of outcomes" (List.length serial)
    (List.length parallel);
  check
    Alcotest.(list string)
    "each staged id names its table"
    (List.map Ccdb_harness.Experiments.id (quick_suite ()))
    (List.map (fun (o : Ccdb_harness.Experiments.outcome) -> o.id) serial);
  check Alcotest.string "byte-identical rendered tables" (render_all serial)
    (render_all parallel)

(* Each call's pool is joined before it returns: afterwards a run can
   still reserve a domain for its observers. *)
let test_experiments_release_their_domains () =
  if Domain.recommended_domain_count () >= 2 then begin
    ignore (Ccdb_harness.Parallel.experiments ~jobs:2 (quick_suite ()));
    let reserved = Pool.reserve_domain () in
    if reserved then Pool.release_domain ();
    check Alcotest.bool "a domain is free after the call" true reserved
  end

let test_staged_counts () =
  let staged = Ccdb_harness.Experiments.staged ~quick:true () in
  check Alcotest.int "22 experiments" 22 (List.length staged);
  List.iter
    (fun s ->
      check Alcotest.bool "every experiment has points" true
        (Ccdb_harness.Experiments.points_count s >= 1))
    staged

let test_prepare_detects_unrun_points () =
  let staged = List.hd (Ccdb_harness.Experiments.staged ~quick:true ()) in
  let _tasks, finish = Ccdb_harness.Experiments.prepare staged in
  (* assembling without running any point must fail loudly, not produce a
     half-empty table *)
  match finish () with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

(* --- Parallel audited driver runs --------------------------------------- *)

let audited_run seed =
  let setup = { Ccdb_harness.Driver.default_setup with seed; items = 12 } in
  let spec =
    { Ccdb_workload.Generator.default with
      arrival_rate = 0.15;
      protocol_mix =
        [ (Ccdb_model.Protocol.Two_pl, 1.); (Ccdb_model.Protocol.T_o, 1.);
          (Ccdb_model.Protocol.Pa, 1.) ] }
  in
  let trace = ref None in
  let r =
    Ccdb_harness.Driver.run ~setup ~n_txns:50 ~audit:true
      ~observer:(fun rt -> trace := Some (Ccdb_harness.Trace.attach rt))
      Ccdb_harness.Driver.Unified spec
  in
  let report = Option.get r.audit in
  ( (seed, Ccdb_analysis.Report.is_clean report),
    Ccdb_analysis.Report.summary report,
    Ccdb_harness.Trace.render (Option.get !trace),
    r.summary.Ccdb_harness.Metrics.committed )

let test_parallel_audited_traces_identical () =
  let seeds = [ 3; 11; 42; 97 ] in
  let serial = List.map audited_run seeds in
  let parallel =
    Pool.with_pool ~jobs:4 (fun pool -> Pool.map pool audited_run seeds)
  in
  List.iter2
    (fun ((s1, _), a1, t1, c1) ((s2, _), a2, t2, c2) ->
      check Alcotest.int "seed order preserved" s1 s2;
      check Alcotest.string "audit summary identical" a1 a2;
      check Alcotest.int "committed identical" c1 c2;
      check Alcotest.string "trace identical" t1 t2)
    serial parallel;
  List.iter
    (fun ((seed, clean), _, _, _) ->
      check Alcotest.bool
        (Printf.sprintf "seed %d audit clean" seed)
        true clean)
    serial

(* --- Semi_lock_queue vs its executable specification --------------------- *)

(* The list-based Semi_lock_queue this PR replaced, kept as the executable
   specification: append + stable sort for ordering, full folds for the
   high-water marks, held-lock scans for the grant rules.  No index, no
   counters, no caches — slow and obviously right. *)
module Spec_queue = struct
  type entry = {
    txn : int;
    site : int;
    protocol : Ccdb_model.Protocol.t;
    op : Ccdb_model.Op.kind;
    interval : int;
    mutable prec : Ccdb_model.Precedence.t;
    mutable blocked : bool;
    mutable lock : Ccdb_model.Lock.mode option;
    mutable schedule : Ccdb_model.Lock.schedule;
    mutable grant_seq : int;
  }

  type t = {
    semi_locks : bool;
    mutable entries : entry list;
    mutable max_ts_seen : int;
    mutable arrival_counter : int;
    mutable grant_counter : int;
    mutable r_released : int;
    mutable w_released : int;
  }

  let create ?(semi_locks = true) () =
    { semi_locks; entries = []; max_ts_seen = 0; arrival_counter = 0;
      grant_counter = 0; r_released = -1; w_released = -1 }

  let sort t =
    t.entries <-
      List.stable_sort
        (fun a b -> Ccdb_model.Precedence.compare a.prec b.prec)
        t.entries

  let granted_max t op =
    List.fold_left
      (fun acc e ->
        if e.lock <> None && Ccdb_model.Op.equal e.op op then
          max acc e.prec.Ccdb_model.Precedence.ts
        else acc)
      (-1) t.entries

  let r_ts t = max t.r_released (granted_max t Ccdb_model.Op.Read)
  let w_ts t = max t.w_released (granted_max t Ccdb_model.Op.Write)

  let request t ~txn ~site ~protocol ~ts ~interval ~op =
    if List.exists (fun e -> e.txn = txn) t.entries then
      invalid_arg "duplicate";
    let fresh prec blocked =
      { txn; site; protocol; op; interval; prec; blocked; lock = None;
        schedule = Ccdb_model.Lock.Normal; grant_seq = -1 }
    in
    let admit e =
      t.entries <- t.entries @ [ e ];
      sort t
    in
    match protocol, ts with
    | Ccdb_model.Protocol.Two_pl, None ->
      let prec =
        Ccdb_model.Precedence.queue_local ~ts:t.max_ts_seen
          ~arrival:t.arrival_counter
      in
      t.arrival_counter <- t.arrival_counter + 1;
      admit (fresh prec false);
      Q.Accepted
    | (Ccdb_model.Protocol.T_o | Ccdb_model.Protocol.Pa), Some ts ->
      let floor =
        match op with
        | Ccdb_model.Op.Read -> w_ts t
        | Ccdb_model.Op.Write -> max (w_ts t) (r_ts t)
      in
      let admit_ts ts blocked =
        t.max_ts_seen <- max t.max_ts_seen ts;
        admit (fresh (Ccdb_model.Precedence.timestamped ~ts ~site ~txn) blocked)
      in
      if ts > floor then begin
        admit_ts ts false;
        Q.Accepted
      end
      else if protocol = Ccdb_model.Protocol.T_o then Q.Rejected
      else begin
        let tuple = Ccdb_model.Timestamp.Tuple.make ~ts ~interval in
        let ts' = Ccdb_model.Timestamp.Tuple.backoff tuple ~floor in
        admit_ts ts' true;
        Q.Backoff ts'
      end
    | _ -> invalid_arg "ts/protocol mismatch"

  let update_ts t ~txn ~ts =
    match List.find_opt (fun e -> e.txn = txn) t.entries with
    | None -> `Absent
    | Some e ->
      let revoked = e.lock <> None in
      t.max_ts_seen <- max t.max_ts_seen ts;
      t.entries <- List.filter (fun e' -> e'.txn <> txn) t.entries;
      e.prec <- Ccdb_model.Precedence.timestamped ~ts ~site:e.site ~txn:e.txn;
      e.blocked <- false;
      e.lock <- None;
      e.schedule <- Ccdb_model.Lock.Normal;
      e.grant_seq <- -1;
      t.entries <- t.entries @ [ e ];
      sort t;
      if revoked then `Revoked else `Moved

  let held_by_others t e =
    List.filter_map
      (fun e' -> if e'.txn <> e.txn then e'.lock else None)
      t.entries

  let grant_check t e =
    let held = held_by_others t e in
    let count m = List.length (List.filter (fun m' -> m' = m) held) in
    let n_rl = count Ccdb_model.Lock.Rl and n_wl = count Ccdb_model.Lock.Wl in
    let n_srl = count Ccdb_model.Lock.Srl
    and n_swl = count Ccdb_model.Lock.Swl in
    let any = held <> [] in
    if t.semi_locks then
      match e.protocol, e.op with
      | (Ccdb_model.Protocol.Two_pl | Ccdb_model.Protocol.Pa), Ccdb_model.Op.Read
        -> if n_wl + n_swl > 0 then None else Some Ccdb_model.Lock.Normal
      | (Ccdb_model.Protocol.Two_pl | Ccdb_model.Protocol.Pa), Ccdb_model.Op.Write
        -> if any then None else Some Ccdb_model.Lock.Normal
      | Ccdb_model.Protocol.T_o, Ccdb_model.Op.Read ->
        if n_wl > 0 then None
        else if n_swl > 0 then Some Ccdb_model.Lock.Pre_scheduled
        else Some Ccdb_model.Lock.Normal
      | Ccdb_model.Protocol.T_o, Ccdb_model.Op.Write ->
        if n_rl + n_wl > 0 then None
        else if n_srl + n_swl > 0 then Some Ccdb_model.Lock.Pre_scheduled
        else Some Ccdb_model.Lock.Normal
    else
      match e.op with
      | Ccdb_model.Op.Read ->
        if n_wl + n_swl > 0 then None else Some Ccdb_model.Lock.Normal
      | Ccdb_model.Op.Write ->
        if any then None else Some Ccdb_model.Lock.Normal

  let lock_mode_for t e =
    match e.protocol, e.op with
    | (Ccdb_model.Protocol.Two_pl | Ccdb_model.Protocol.Pa), Ccdb_model.Op.Read
      -> Ccdb_model.Lock.Rl
    | (Ccdb_model.Protocol.Two_pl | Ccdb_model.Protocol.Pa), Ccdb_model.Op.Write
      -> Ccdb_model.Lock.Wl
    | Ccdb_model.Protocol.T_o, Ccdb_model.Op.Read ->
      if t.semi_locks then Ccdb_model.Lock.Srl else Ccdb_model.Lock.Rl
    | Ccdb_model.Protocol.T_o, Ccdb_model.Op.Write -> Ccdb_model.Lock.Wl

  let grant_ready t =
    let newly = ref [] in
    let rec scan = function
      | [] -> ()
      | e :: rest ->
        if e.lock <> None then scan rest
        else if e.blocked then ()
        else begin
          match grant_check t e with
          | None -> ()
          | Some schedule ->
            e.lock <- Some (lock_mode_for t e);
            e.schedule <- schedule;
            e.grant_seq <- t.grant_counter;
            t.grant_counter <- t.grant_counter + 1;
            newly := (e.txn, schedule) :: !newly;
            scan rest
        end
    in
    scan t.entries;
    List.rev !newly

  let transform t ~txn =
    match List.find_opt (fun e -> e.txn = txn) t.entries with
    | None -> false
    | Some e ->
      (match e.lock with
       | Some mode -> e.lock <- Some (Ccdb_model.Lock.to_semi mode)
       | None -> ());
      true

  let promotions t =
    List.filter
      (fun e ->
        e.lock <> None
        && Ccdb_model.Lock.schedule_equal e.schedule
             Ccdb_model.Lock.Pre_scheduled
        && not
             (List.exists
                (fun e' ->
                  e'.txn <> e.txn && e'.grant_seq >= 0
                  && e'.grant_seq < e.grant_seq
                  && match e'.lock, e.lock with
                     | Some m', Some m -> Ccdb_model.Lock.conflicts m' m
                     | _, _ -> false)
                t.entries))
      t.entries

  let remove t ~txn ~advance_hwm =
    match List.find_opt (fun e -> e.txn = txn) t.entries with
    | None -> None
    | Some e ->
      t.entries <- List.filter (fun e' -> e'.txn <> txn) t.entries;
      if advance_hwm then begin
        let ts = e.prec.Ccdb_model.Precedence.ts in
        match e.op with
        | Ccdb_model.Op.Read -> t.r_released <- max t.r_released ts
        | Ccdb_model.Op.Write -> t.w_released <- max t.w_released ts
      end;
      let promoted = promotions t in
      List.iter
        (fun p -> p.schedule <- Ccdb_model.Lock.Normal)
        promoted;
      Some (e.txn, List.map (fun p -> p.txn) promoted)

  let release t ~txn = remove t ~txn ~advance_hwm:true
  let abort t ~txn = remove t ~txn ~advance_hwm:false

  let state t =
    List.map
      (fun e -> (e.txn, e.blocked, e.lock, e.schedule, e.grant_seq))
      t.entries
end

(* one observable digest per implementation, compared after every step *)
let impl_state q =
  List.map
    (fun (e : Q.entry) -> (e.txn, e.blocked, e.lock, e.schedule, e.grant_seq))
    (Q.entries q)

let pp_lock = function
  | None -> "-"
  | Some m -> Ccdb_model.Lock.to_string m

let show_state st =
  String.concat ";"
    (List.map
       (fun (txn, blocked, lock, schedule, seq) ->
         Printf.sprintf "%d%s%s/%s@%d" txn
           (if blocked then "b" else "")
           (pp_lock lock)
           (match schedule with
            | Ccdb_model.Lock.Normal -> "n"
            | Ccdb_model.Lock.Pre_scheduled -> "p")
           seq)
       st)

let response_str = function
  | Q.Accepted -> "accepted"
  | Q.Rejected -> "rejected"
  | Q.Backoff ts -> Printf.sprintf "backoff %d" ts

(* Drive the real queue and the specification through one random script,
   comparing every response and the full observable state after every
   step. *)
let run_script ~seed ~semi_locks ~steps =
  let rng = Ccdb_util.Rng.create ~seed in
  let q = Q.create ~semi_locks () in
  let s = Spec_queue.create ~semi_locks () in
  let next_txn = ref 0 in
  let present = ref [] in
  let fail step what =
    Alcotest.failf "seed %d step %d: %s mismatch\n real: %s\n spec: %s" seed
      step what
      (show_state (impl_state q))
      (show_state (Spec_queue.state s))
  in
  let compare_states step what =
    if impl_state q <> Spec_queue.state s then fail step what;
    if Q.r_ts q <> Spec_queue.r_ts s then fail step (what ^ " r_ts");
    if Q.w_ts q <> Spec_queue.w_ts s then fail step (what ^ " w_ts")
  in
  for step = 1 to steps do
    (match Ccdb_util.Rng.int rng 10 with
     | 0 | 1 | 2 | 3 | 4 ->
       (* request from a fresh transaction *)
       incr next_txn;
       let txn = !next_txn in
       let protocol =
         match Ccdb_util.Rng.int rng 3 with
         | 0 -> Ccdb_model.Protocol.Two_pl
         | 1 -> Ccdb_model.Protocol.T_o
         | _ -> Ccdb_model.Protocol.Pa
       in
       let op =
         if Ccdb_util.Rng.bool rng then Ccdb_model.Op.Read
         else Ccdb_model.Op.Write
       in
       let ts =
         if protocol = Ccdb_model.Protocol.Two_pl then None
         else Some (Ccdb_util.Rng.int rng 60)
       in
       let site = Ccdb_util.Rng.int rng 4 in
       let interval = 1 + Ccdb_util.Rng.int rng 8 in
       let ra =
         Q.request q ~txn ~site ~protocol ~ts ~interval ~epoch:0 ~op
       in
       let rb = Spec_queue.request s ~txn ~site ~protocol ~ts ~interval ~op in
       if ra <> rb then
         Alcotest.failf "seed %d step %d: response %s vs %s" seed step
           (response_str ra) (response_str rb);
       if ra <> Q.Rejected then present := txn :: !present
     | 5 | 6 ->
       Q.grant_ready q ~now:(float_of_int step);
       let ga =
         List.init (Q.reports q) (fun i ->
             let (e : Q.entry) = Q.report q i in
             (e.txn, e.schedule))
       in
       let gb = Spec_queue.grant_ready s in
       if ga <> gb then fail step "grant order"
     | 7 ->
       (match !present with
        | [] -> ()
        | txns ->
          let txn = List.nth txns (Ccdb_util.Rng.int rng (List.length txns)) in
          let release = Ccdb_util.Rng.bool rng in
          let ra =
            match if release then Q.release q ~txn else Q.abort q ~txn with
            | exception Not_found -> None
            | e ->
              Some
                (e.txn, List.init (Q.reports q) (fun i -> (Q.report q i).txn))
          in
          let rb =
            if release then Spec_queue.release s ~txn
            else Spec_queue.abort s ~txn
          in
          if ra <> rb then fail step "release/abort result";
          present := List.filter (fun t -> t <> txn) !present)
     | 8 ->
       (match !present with
        | [] -> ()
        | txns ->
          let txn = List.nth txns (Ccdb_util.Rng.int rng (List.length txns)) in
          let ts = Ccdb_util.Rng.int rng 80 in
          let ra = Q.update_ts q ~txn ~ts in
          let rb = Spec_queue.update_ts s ~txn ~ts in
          if ra <> rb then fail step "update_ts result")
     | _ ->
       (match !present with
        | [] -> ()
        | txns ->
          let txn = List.nth txns (Ccdb_util.Rng.int rng (List.length txns)) in
          let ra =
            match Q.transform q ~txn with
            | (_ : Q.entry) -> true
            | exception Not_found -> false
          in
          let rb = Spec_queue.transform s ~txn in
          if ra <> rb then fail step "transform result"));
    compare_states step "state"
  done

let test_queue_matches_spec () =
  (* 1000 scripts, alternating semi-lock and full-locking queues *)
  for seed = 1 to 1000 do
    run_script ~seed ~semi_locks:(seed mod 2 = 0) ~steps:30
  done

let test_queue_duplicate_request () =
  let q = Q.create () in
  ignore
    (Q.request q ~txn:7 ~site:0 ~protocol:Ccdb_model.Protocol.T_o ~ts:(Some 5)
       ~interval:1 ~epoch:0 ~op:Ccdb_model.Op.Read);
  match
    Q.request q ~txn:7 ~site:0 ~protocol:Ccdb_model.Protocol.T_o ~ts:(Some 9)
      ~interval:1 ~epoch:0 ~op:Ccdb_model.Op.Write
  with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

let test_to_queue_duplicate_request () =
  let t = Ccdb_protocols.To_queue.create () in
  ignore (Ccdb_protocols.To_queue.request t ~txn:3 ~ts:4 ~op:Ccdb_model.Op.Read);
  match Ccdb_protocols.To_queue.request t ~txn:3 ~ts:9 ~op:Ccdb_model.Op.Read with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

(* --- JSON --------------------------------------------------------------- *)

let test_json_roundtrip () =
  let doc =
    Json.Obj
      [ ("schema", Json.Str "x/1");
        ("n", Json.Num 42.);
        ("pi", Json.Num 3.25);
        ("flag", Json.Bool true);
        ("nothing", Json.Null);
        ("items",
         Json.List [ Json.Num 1.; Json.Str "two\n\"quoted\""; Json.Bool false ]);
        ("nested", Json.Obj [ ("empty_list", Json.List []); ("empty", Json.Obj []) ])
      ]
  in
  List.iter
    (fun indent ->
      match Json.of_string (Json.to_string ~indent doc) with
      | Ok doc' ->
        check Alcotest.bool
          (Printf.sprintf "roundtrip indent=%d" indent)
          true (doc = doc')
      | Error e -> Alcotest.failf "parse error: %s" e)
    [ 0; 2 ]

let test_json_parse_errors () =
  List.iter
    (fun s ->
      match Json.of_string s with
      | Ok _ -> Alcotest.failf "accepted invalid json %S" s
      | Error _ -> ())
    [ ""; "{"; "[1,]"; "{\"a\":}"; "nul"; "\"unterminated"; "1 2"; "{'a':1}" ]

let test_json_nonfinite_prints_null () =
  check Alcotest.string "nan" "null" (Json.to_string ~indent:0 (Json.Num Float.nan));
  check Alcotest.string "inf" "null"
    (Json.to_string ~indent:0 (Json.Num Float.infinity))

(* --- committed BENCH.json shape ----------------------------------------- *)

let test_bench_json_shape () =
  let path = "../BENCH.json" in
  let ic = open_in path in
  let len = in_channel_length ic in
  let raw = really_input_string ic len in
  close_in ic;
  match Json.of_string raw with
  | Error e -> Alcotest.failf "BENCH.json does not parse: %s" e
  | Ok doc ->
    let str key = Option.bind (Json.member key doc) Json.to_str in
    check (Alcotest.option Alcotest.string) "schema" (Some "ccdb-bench/8")
      (str "schema");
    let cores = Option.bind (Json.member "cores" doc) Json.to_float in
    check Alcotest.bool "cores >= 1" true
      (match cores with Some c -> c >= 1. | None -> false);
    (* the ccdb-bench/8 calibration kernel, timed next to the micros *)
    let calibration =
      Option.bind (Json.member "calibration_ms" doc) Json.to_float
    in
    check Alcotest.bool "calibration_ms positive" true
      (match calibration with Some ms -> ms > 0. | None -> false);
    (match Option.bind (Json.member "micro" doc) Json.to_list with
     | None -> Alcotest.fail "micro missing"
     | Some rows ->
       check Alcotest.bool "micro rows present" true (List.length rows >= 5);
       List.iter
         (fun row ->
           let name = Option.bind (Json.member "name" row) Json.to_str in
           let ns = Option.bind (Json.member "ns_per_op" row) Json.to_float in
           let r2 = Option.bind (Json.member "r_square" row) Json.to_float in
           let low =
             Option.bind (Json.member "low_confidence" row) (function
               | Json.Bool b -> Some b
               | _ -> None)
           in
           match name, ns, r2, low with
           | Some _, Some ns, Some r2, Some low ->
             check Alcotest.bool "ns/op positive" true (ns > 0.);
             check Alcotest.bool "r^2 in [0,1]" true (r2 >= 0. && r2 <= 1.);
             (* the ccdb-bench/4 confidence gate: rows under the 0.9 line
                must carry the flag, rows above must not *)
             check Alcotest.bool "low_confidence consistent with r^2" true
               (low = (r2 < 0.9))
           | _ -> Alcotest.fail "micro row incomplete")
         rows;
       let has name =
         List.exists
           (fun row ->
             Option.bind (Json.member "name" row) Json.to_str
             = Some ("ccdb/" ^ name))
           rows
       in
       check Alcotest.bool "semi_lock_queue.cycle present" true
         (has "semi_lock_queue.cycle");
       check Alcotest.bool "lock_table.cycle present" true
         (has "lock_table.cycle");
       check Alcotest.bool "wal.append present" true (has "wal.append");
       check Alcotest.bool "wal.replay-512 present" true
         (has "wal.replay-512");
       check Alcotest.bool "conflict_graph.check-incremental present" true
         (has "conflict_graph.check-incremental");
       check Alcotest.bool "analysis.stream-feed present" true
         (has "analysis.stream-feed");
       check Alcotest.bool "engine.push100+run present" true
         (has "engine.push100+run");
       (* the commit-protocol pair: each atomic-commitment engine timed
          over a whole 16-transaction durable run *)
       check Alcotest.bool "commit.2pc-sim-16txn present" true
         (has "commit.2pc-sim-16txn");
       check Alcotest.bool "commit.paxos-sim-16txn present" true
         (has "commit.paxos-sim-16txn"));
    (match Json.member "experiments" doc with
     | None -> Alcotest.fail "experiments missing"
     | Some exp ->
       let num key = Option.bind (Json.member key exp) Json.to_float in
       check Alcotest.bool "serial wall clock recorded" true
         (match num "serial_wall_clock_s" with
          | Some s -> s > 0.
          | None -> false);
       check Alcotest.bool "parallel wall clock recorded" true
         (match num "parallel_wall_clock_s" with
          | Some s -> s > 0.
          | None -> false);
       check (Alcotest.option Alcotest.bool) "tables identical at N jobs"
         (Some true)
         (Option.bind (Json.member "identical_tables" exp) (function
           | Json.Bool b -> Some b
           | _ -> None)))

let suites =
  [ ( "pool",
      [ Alcotest.test_case "default jobs" `Quick test_pool_default_jobs;
        Alcotest.test_case "map preserves order" `Quick test_pool_map_order;
        Alcotest.test_case "pool reuse" `Quick test_pool_reuse;
        Alcotest.test_case "first failure re-raised" `Quick test_pool_exception;
        Alcotest.test_case "usable after failure" `Quick
          test_pool_usable_after_failure ] );
    ( "parallel-experiments",
      [ Alcotest.test_case "jobs 1 = jobs 4 (byte-identical)" `Slow
          test_experiments_jobs_identical;
        Alcotest.test_case "no domain outlives the call" `Slow
          test_experiments_release_their_domains;
        Alcotest.test_case "staged decomposition" `Quick test_staged_counts;
        Alcotest.test_case "unrun point detected" `Quick
          test_prepare_detects_unrun_points;
        Alcotest.test_case "audited traces identical across jobs" `Slow
          test_parallel_audited_traces_identical ] );
    ( "semi-lock-queue-spec",
      [ Alcotest.test_case "1000 random scripts match spec" `Quick
          test_queue_matches_spec;
        Alcotest.test_case "duplicate request raises" `Quick
          test_queue_duplicate_request;
        Alcotest.test_case "to_queue duplicate raises" `Quick
          test_to_queue_duplicate_request ] );
    ( "json",
      [ Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
        Alcotest.test_case "parse errors" `Quick test_json_parse_errors;
        Alcotest.test_case "non-finite prints null" `Quick
          test_json_nonfinite_prints_null;
        Alcotest.test_case "BENCH.json shape" `Quick test_bench_json_shape ] )
  ]
