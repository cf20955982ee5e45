(* Workload-insights layer: histogram algebra (property-tested), collector
   document schema + round-trip, the committed INSIGHTS.json artifact, and
   E14's order-independence. *)

let check = Alcotest.check

let qcheck ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

module H = Ccdb_util.Histogram
module Collector = Ccdb_insights.Collector

(* --- histogram: recorded samples, algebraic laws ------------------------ *)

let samples_gen =
  (* latencies spanning the sub-unit bucket, several octaves and the large
     tail; non-negative finite floats only, as the recorder requires *)
  QCheck.(list_of_size Gen.(0 -- 64) (float_bound_exclusive 100_000.))

let of_samples xs =
  let h = H.create () in
  List.iter (fun x -> H.record h (Float.abs x)) xs;
  h

let test_histogram_count =
  qcheck "count = samples recorded" samples_gen (fun xs ->
      H.count (of_samples xs) = List.length xs)

let test_merge_count =
  qcheck "merge preserves count"
    QCheck.(pair samples_gen samples_gen)
    (fun (xs, ys) ->
      let m = H.merge (of_samples xs) (of_samples ys) in
      H.count m = List.length xs + List.length ys)

let test_merge_commutative =
  qcheck "merge commutes"
    QCheck.(pair samples_gen samples_gen)
    (fun (xs, ys) ->
      let a = of_samples xs and b = of_samples ys in
      H.equal (H.merge a b) (H.merge b a))

let test_merge_associative =
  qcheck "merge associates"
    QCheck.(triple samples_gen samples_gen samples_gen)
    (fun (xs, ys, zs) ->
      let a = of_samples xs and b = of_samples ys and c = of_samples zs in
      H.equal (H.merge (H.merge a b) c) (H.merge a (H.merge b c)))

let test_merge_is_concat =
  qcheck "merge a b = histogram of xs @ ys"
    QCheck.(pair samples_gen samples_gen)
    (fun (xs, ys) ->
      H.equal
        (H.merge (of_samples xs) (of_samples ys))
        (of_samples (xs @ ys)))

let test_percentile_bounds =
  (* the reported percentile is a tight upper bound on the true
     nearest-rank sample: s < reported <= max(1, s * (1 + 1/sub_buckets)),
     where the lower bound is strict because the report is a bucket's
     exclusive upper edge *)
  qcheck "percentile brackets the nearest-rank sample"
    QCheck.(pair (list_of_size Gen.(1 -- 64) (float_bound_exclusive 100_000.))
              (float_bound_inclusive 100.))
    (fun (xs, p) ->
      let xs = List.map Float.abs xs in
      let h = of_samples xs in
      let sorted = List.sort compare xs in
      let rank =
        max 1
          (int_of_float
             (Float.ceil (p /. 100. *. float_of_int (List.length xs))))
      in
      let s = List.nth sorted (rank - 1) in
      let reported = H.percentile h p in
      let slack = 1. +. (1. /. float_of_int H.sub_buckets) in
      s < reported && reported <= Float.max 1. (s *. slack))

let test_percentile_empty () =
  check Alcotest.bool "empty histogram reports nan" true
    (Float.is_nan (H.percentile (H.create ()) 50.))

let test_record_rejects_bad_values () =
  let h = H.create () in
  List.iter
    (fun v ->
      match H.record h v with
      | () -> Alcotest.failf "record %f should have raised" v
      | exception Invalid_argument _ -> ())
    [ -1.; Float.nan; Float.infinity ]

(* The layout as it was first written, with [Float.frexp]: the bucket a
   sample lands in must not move, or committed documents would change. *)
let reference_index v =
  if v < 1. then 0
  else
    let m, e' = Float.frexp v in
    let sub =
      min (H.sub_buckets - 1)
        (int_of_float ((2. *. m -. 1.) *. float_of_int H.sub_buckets))
    in
    1 + (H.sub_buckets * (e' - 1)) + sub

let test_bucket_layout =
  qcheck ~count:1000 "bucket index is the frexp layout"
    QCheck.(
      oneof
        [ float_bound_exclusive 100_000.;
          map Float.abs float;
          map (fun e -> Float.ldexp 1. e) (int_range 0 1023);
          map (fun e -> Float.pred (Float.ldexp 1. e)) (int_range 1 1024) ])
    (fun v ->
      let v = Float.abs v in
      QCheck.assume (Float.is_finite v);
      let h = H.create () in
      H.record h v;
      match H.buckets h with
      | [ (idx, lo, hi, 1) ] -> idx = reference_index v && lo <= v && v < hi
      | _ -> false)

let test_of_json_rejects_unknown_buckets () =
  let doc idx =
    Ccdb_util.Json.(
      Obj [ ("buckets", List [ Obj [ ("bucket", Num idx); ("n", Num 1.) ] ]) ])
  in
  let top = reference_index Float.max_float in
  (match H.of_json (doc (float_of_int top)) with
   | Ok h -> check Alcotest.int "largest float's bucket" 1 (H.count h)
   | Error e -> Alcotest.failf "bucket %d refused: %s" top e);
  match H.of_json (doc (float_of_int (top + 1))) with
  | Ok _ -> Alcotest.failf "bucket %d past the largest float accepted" (top + 1)
  | Error _ -> ()

let test_histogram_json_roundtrip =
  qcheck "of_json (to_json h) = h" samples_gen (fun xs ->
      let h = of_samples xs in
      match H.of_json (H.to_json h) with
      | Ok h' -> H.equal h h'
      | Error e -> QCheck.Test.fail_reportf "of_json: %s" e)

(* --- collector: schema and round-trip on a live run --------------------- *)

let collected_doc =
  (* one small dynamic run, shared by the document tests *)
  lazy
    (let collector = ref None in
     let setup =
       { Ccdb_harness.Driver.default_setup with
         items = 12;
         adaptive = Ccdb_harness.Driver.Measured 300.;
         reselect = true }
     in
     let spec =
       { Ccdb_workload.Generator.default with arrival_rate = 0.15 }
     in
     ignore
       (Ccdb_harness.Driver.run ~setup ~n_txns:60
          ~observer:(fun rt ->
            collector := Some (Collector.attach ~window:300. rt))
          Ccdb_harness.Driver.Dynamic spec);
     (Option.get !collector, Collector.to_json (Option.get !collector)))

let test_document_validates () =
  let _, doc = Lazy.force collected_doc in
  match Collector.validate doc with
  | Ok () -> ()
  | Error e -> Alcotest.failf "live document failed validation: %s" e

let test_document_roundtrip () =
  let _, doc = Lazy.force collected_doc in
  match Ccdb_util.Json.of_string (Ccdb_util.Json.to_string doc) with
  | Error e -> Alcotest.failf "document does not re-parse: %s" e
  | Ok doc' -> (
    check Alcotest.string "print/parse round-trip is exact"
      (Ccdb_util.Json.to_string doc)
      (Ccdb_util.Json.to_string doc');
    match Collector.validate doc' with
    | Ok () -> ()
    | Error e -> Alcotest.failf "re-parsed document fails validation: %s" e)

let test_document_totals_match () =
  let c, doc = Lazy.force collected_doc in
  let committed =
    List.fold_left
      (fun acc (cs : Collector.class_stats) -> acc + cs.committed)
      0 (Collector.fingerprints c)
  in
  check Alcotest.int "per-window commits sum to the run total" committed
    (List.fold_left
       (fun acc (w : Collector.window) -> acc + w.w_committed)
       0 (Collector.windows c));
  check (Alcotest.option Alcotest.(float 0.)) "document total agrees"
    (Some (float_of_int committed))
    (Option.bind (Ccdb_util.Json.member "committed" doc)
       Ccdb_util.Json.to_float)

let test_validate_rejects_mutations () =
  let _, doc = Lazy.force collected_doc in
  let expect_error label mutated =
    match Collector.validate mutated with
    | Error _ -> ()
    | Ok () -> Alcotest.failf "%s should have failed validation" label
  in
  (match doc with
   | Ccdb_util.Json.Obj fields ->
     expect_error "wrong schema version"
       (Ccdb_util.Json.Obj
          (List.map
             (function
               | "schema", _ -> ("schema", Ccdb_util.Json.Str "ccdb-insights/0")
               | kv -> kv)
             fields));
     expect_error "missing windows"
       (Ccdb_util.Json.Obj (List.remove_assoc "windows" fields));
     expect_error "fingerprints not a list"
       (Ccdb_util.Json.Obj
          (List.map
             (function
               | "fingerprints", _ ->
                 ("fingerprints", Ccdb_util.Json.Str "oops")
               | kv -> kv)
             fields))
   | _ -> Alcotest.fail "document is not an object");
  expect_error "not an object" (Ccdb_util.Json.Str "{}")

let test_committed_artifact () =
  (* the INSIGHTS.json artifact next to BENCH.json: parses, validates, and
     is the full-size canonical run *)
  let ic = open_in "../INSIGHTS.json" in
  let raw = really_input_string ic (in_channel_length ic) in
  close_in ic;
  match Ccdb_util.Json.of_string raw with
  | Error e -> Alcotest.failf "INSIGHTS.json does not parse: %s" e
  | Ok doc ->
    (match Collector.validate doc with
     | Ok () -> ()
     | Error e -> Alcotest.failf "INSIGHTS.json fails validation: %s" e);
    check (Alcotest.option Alcotest.string) "schema"
      (Some Collector.schema_version)
      (Option.bind (Ccdb_util.Json.member "schema" doc) Ccdb_util.Json.to_str);
    check (Alcotest.option Alcotest.(float 0.)) "canonical run size"
      (Some 700.)
      (Option.bind (Ccdb_util.Json.member "committed" doc)
         Ccdb_util.Json.to_float)

(* --- estimator source edge cases ---------------------------------------- *)

let test_windowed_rejects_bad_window () =
  let catalog =
    Ccdb_storage.Catalog.create ~items:4 ~sites:2 ~replication:1
  in
  let rt =
    Ccdb_protocols.Runtime.create ~seed:1
      ~net_config:Ccdb_sim.Net.default_config ~catalog ()
  in
  (match Ccdb_stl.Estimator.create ~source:(Ccdb_stl.Estimator.Windowed 0.) rt with
   | _ -> Alcotest.fail "Windowed 0. should raise"
   | exception Invalid_argument _ -> ());
  match Ccdb_stl.Estimator.create ~source:(Ccdb_stl.Estimator.Windowed (-5.)) rt with
  | _ -> Alcotest.fail "Windowed -5. should raise"
  | exception Invalid_argument _ -> ()

let test_windowed_empty_falls_back () =
  (* with no traffic at all, a windowed estimator must still produce a
     defined snapshot (priors / cumulative fallback), exactly like the
     cumulative source *)
  let catalog =
    Ccdb_storage.Catalog.create ~items:4 ~sites:2 ~replication:1
  in
  let rt =
    Ccdb_protocols.Runtime.create ~seed:1
      ~net_config:Ccdb_sim.Net.default_config ~catalog ()
  in
  let windowed =
    Ccdb_stl.Estimator.create ~source:(Ccdb_stl.Estimator.Windowed 100.) rt
  in
  let s = Ccdb_stl.Estimator.snapshot windowed in
  check Alcotest.bool "lambda_a defined and positive" true
    (Float.is_finite s.params.Ccdb_stl.Stl_model.lambda_a
    && s.params.Ccdb_stl.Stl_model.lambda_a > 0.);
  List.iter
    (fun p ->
      check Alcotest.bool "hold time falls back to the prior" true
        (s.two_pl.Ccdb_stl.Txn_cost.u_hold > 0.
        && Float.is_finite (s.response_time p)))
    Ccdb_model.Protocol.all

(* --- E14: assembly is order-independent --------------------------------- *)

let test_e14_order_independent () =
  (* the staged decomposition contract behind --jobs: running E14's six
     points in reverse order assembles a byte-identical outcome *)
  let e14_of () =
    List.nth (Ccdb_harness.Experiments.staged ~quick:true ()) 13
  in
  let serial = Ccdb_harness.Experiments.run_one (e14_of ()) in
  check Alcotest.string "id is E14" "E14" serial.Ccdb_harness.Experiments.id;
  let tasks, finish = Ccdb_harness.Experiments.prepare (e14_of ()) in
  List.iter (fun task -> task ()) (List.rev tasks);
  let reversed = finish () in
  check Alcotest.string "byte-identical rendered outcome"
    (Ccdb_harness.Experiments.render serial)
    (Ccdb_harness.Experiments.render reversed)

let suites =
  [ ( "insights-histogram",
      [ test_histogram_count; test_merge_count; test_merge_commutative;
        test_merge_associative; test_merge_is_concat; test_percentile_bounds;
        test_histogram_json_roundtrip;
        Alcotest.test_case "empty percentile" `Quick test_percentile_empty;
        Alcotest.test_case "record rejects bad values" `Quick
          test_record_rejects_bad_values;
        test_bucket_layout;
        Alcotest.test_case "of_json refuses buckets past the largest float"
          `Quick test_of_json_rejects_unknown_buckets ] );
    ( "insights-document",
      [ Alcotest.test_case "live document validates" `Quick
          test_document_validates;
        Alcotest.test_case "print/parse round-trip" `Quick
          test_document_roundtrip;
        Alcotest.test_case "totals consistent" `Quick
          test_document_totals_match;
        Alcotest.test_case "validate rejects mutations" `Quick
          test_validate_rejects_mutations;
        Alcotest.test_case "committed INSIGHTS.json artifact" `Quick
          test_committed_artifact ] );
    ( "insights-estimator",
      [ Alcotest.test_case "bad window raises" `Quick
          test_windowed_rejects_bad_window;
        Alcotest.test_case "empty window falls back" `Quick
          test_windowed_empty_falls_back ] );
    ( "insights-e14",
      [ Alcotest.test_case "order-independent assembly" `Slow
          test_e14_order_independent ] ) ]
