(* Tests for Ccdb_util: Rng, Stats, Table. *)

let check = Alcotest.check

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec scan i = i + n <= m && (String.sub s i n = affix || scan (i + 1)) in
  scan 0

(* --- Rng ---------------------------------------------------------------- *)

let test_rng_deterministic () =
  let a = Ccdb_util.Rng.create ~seed:7 in
  let b = Ccdb_util.Rng.create ~seed:7 in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Ccdb_util.Rng.bits64 a)
      (Ccdb_util.Rng.bits64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Ccdb_util.Rng.create ~seed:1 in
  let b = Ccdb_util.Rng.create ~seed:2 in
  check Alcotest.bool "different streams" true
    (Ccdb_util.Rng.bits64 a <> Ccdb_util.Rng.bits64 b)

let test_rng_split_independent () =
  let a = Ccdb_util.Rng.create ~seed:7 in
  let child = Ccdb_util.Rng.split a in
  let x = Ccdb_util.Rng.bits64 child in
  (* drawing more from the parent must not affect the child's stream *)
  let a' = Ccdb_util.Rng.create ~seed:7 in
  let child' = Ccdb_util.Rng.split a' in
  ignore (Ccdb_util.Rng.bits64 a');
  check Alcotest.int64 "child unaffected" x (Ccdb_util.Rng.bits64 child')

let test_rng_copy () =
  let a = Ccdb_util.Rng.create ~seed:3 in
  ignore (Ccdb_util.Rng.bits64 a);
  let b = Ccdb_util.Rng.copy a in
  check Alcotest.int64 "copy replays" (Ccdb_util.Rng.bits64 a)
    (Ccdb_util.Rng.bits64 b)

let test_rng_int_bounds () =
  let rng = Ccdb_util.Rng.create ~seed:11 in
  for _ = 1 to 1000 do
    let v = Ccdb_util.Rng.int rng 10 in
    if v < 0 || v >= 10 then Alcotest.fail "out of range"
  done;
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Ccdb_util.Rng.int rng 0))

let test_rng_float_bounds () =
  let rng = Ccdb_util.Rng.create ~seed:11 in
  for _ = 1 to 1000 do
    let v = Ccdb_util.Rng.float rng 2.5 in
    if v < 0. || v >= 2.5 then Alcotest.fail "out of range"
  done

let test_rng_exponential_mean () =
  let rng = Ccdb_util.Rng.create ~seed:5 in
  let n = 20_000 in
  let sum = ref 0. in
  for _ = 1 to n do
    sum := !sum +. Ccdb_util.Rng.exponential rng ~mean:4.0
  done;
  let mean = !sum /. float_of_int n in
  if abs_float (mean -. 4.0) > 0.15 then
    Alcotest.failf "exponential mean off: %f" mean

let test_rng_zipf_uniform () =
  let rng = Ccdb_util.Rng.create ~seed:5 in
  let sample = Ccdb_util.Rng.zipf_sampler ~n:4 ~theta:0. in
  let counts = Array.make 4 0 in
  for _ = 1 to 8000 do
    let v = sample rng in
    counts.(v) <- counts.(v) + 1
  done;
  Array.iter
    (fun c ->
      if c < 1700 || c > 2300 then Alcotest.failf "not uniform: %d" c)
    counts

let test_rng_zipf_skew () =
  let rng = Ccdb_util.Rng.create ~seed:5 in
  let sample = Ccdb_util.Rng.zipf_sampler ~n:10 ~theta:1.2 in
  let counts = Array.make 10 0 in
  for _ = 1 to 10000 do
    let v = sample rng in
    counts.(v) <- counts.(v) + 1
  done;
  if not (counts.(0) > counts.(5) && counts.(0) > counts.(9)) then
    Alcotest.fail "zipf head not hottest"

let test_rng_sample_distinct () =
  let rng = Ccdb_util.Rng.create ~seed:13 in
  for _ = 1 to 200 do
    let xs = Ccdb_util.Rng.sample_distinct rng ~n:5 ~universe:20 in
    check Alcotest.int "size" 5 (List.length xs);
    check Alcotest.int "distinct" 5 (List.length (List.sort_uniq compare xs));
    List.iter (fun x -> if x < 0 || x >= 20 then Alcotest.fail "range") xs
  done;
  let all = Ccdb_util.Rng.sample_distinct rng ~n:20 ~universe:20 in
  check (Alcotest.list Alcotest.int) "exhaustive" (List.init 20 Fun.id) all

let prop_sample_distinct =
  qtest "sample_distinct: distinct and in range"
    QCheck.(pair small_nat small_nat)
    (fun (n, extra) ->
      let universe = n + extra + 1 in
      let rng = Ccdb_util.Rng.create ~seed:(n + (extra * 131)) in
      let xs = Ccdb_util.Rng.sample_distinct rng ~n ~universe in
      List.length xs = n
      && List.length (List.sort_uniq compare xs) = n
      && List.for_all (fun x -> x >= 0 && x < universe) xs)

(* --- Stats -------------------------------------------------------------- *)

let test_stats_moments () =
  let s = Ccdb_util.Stats.create () in
  List.iter (Ccdb_util.Stats.add s) [ 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. ];
  check Alcotest.int "count" 8 (Ccdb_util.Stats.count s);
  check (Alcotest.float 1e-9) "mean" 5.0 (Ccdb_util.Stats.mean s)

let test_stats_empty () =
  let s = Ccdb_util.Stats.create () in
  check Alcotest.int "count empty" 0 (Ccdb_util.Stats.count s);
  check (Alcotest.float 1e-9) "mean empty" 0. (Ccdb_util.Stats.mean s)

let prop_stats_mean_matches_fold =
  qtest "stats mean = fold mean" QCheck.(list_of_size (Gen.int_range 1 50) (float_range (-1000.) 1000.))
    (fun xs ->
      let s = Ccdb_util.Stats.create () in
      List.iter (Ccdb_util.Stats.add s) xs;
      let mean = List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs) in
      abs_float (Ccdb_util.Stats.mean s -. mean) < 1e-6)

(* --- Table -------------------------------------------------------------- *)

let test_table_render () =
  let t =
    Ccdb_util.Table.create
      ~columns:[ ("name", Ccdb_util.Table.Left); ("v", Ccdb_util.Table.Right) ]
  in
  Ccdb_util.Table.add_row t [ "alpha"; "1" ];
  Ccdb_util.Table.add_row t [ "b"; "22" ];
  let out = Ccdb_util.Table.render t in
  check Alcotest.bool "header present" true (contains ~affix:"name" out);
  check Alcotest.bool "right-aligned value" true (contains ~affix:" 1" out);
  check Alcotest.bool "rows present" true (contains ~affix:"alpha" out);
  (* row width mismatch *)
  Alcotest.check_raises "width" (Invalid_argument "Table.add_row: row width mismatch")
    (fun () -> Ccdb_util.Table.add_row t [ "only-one" ])

let test_table_csv () =
  let t =
    Ccdb_util.Table.create
      ~columns:[ ("a", Ccdb_util.Table.Left); ("b", Ccdb_util.Table.Left) ]
  in
  Ccdb_util.Table.add_row t [ "x,y"; "q\"uote" ];
  let csv = Ccdb_util.Table.to_csv t in
  check Alcotest.string "csv quoting" "a,b\n\"x,y\",\"q\"\"uote\"\n" csv

let test_fmt_float () =
  check Alcotest.string "two decimals" "3.14" (Ccdb_util.Table.fmt_float 3.14159);
  check Alcotest.string "nan" "-" (Ccdb_util.Table.fmt_float Float.nan);
  check Alcotest.string "decimals" "2.7183"
    (Ccdb_util.Table.fmt_float ~decimals:4 2.71828)

let suites =
  [ ( "util.rng",
      [ Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
        Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
        Alcotest.test_case "split independence" `Quick test_rng_split_independent;
        Alcotest.test_case "copy" `Quick test_rng_copy;
        Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
        Alcotest.test_case "float bounds" `Quick test_rng_float_bounds;
        Alcotest.test_case "exponential mean" `Quick test_rng_exponential_mean;
        Alcotest.test_case "zipf uniform" `Quick test_rng_zipf_uniform;
        Alcotest.test_case "zipf skew" `Quick test_rng_zipf_skew;
        Alcotest.test_case "sample_distinct" `Quick test_rng_sample_distinct;
        prop_sample_distinct ] );
    ( "util.stats",
      [ Alcotest.test_case "moments" `Quick test_stats_moments;
        Alcotest.test_case "empty" `Quick test_stats_empty;
        prop_stats_mean_matches_fold ] );
    ( "util.table",
      [ Alcotest.test_case "render" `Quick test_table_render;
        Alcotest.test_case "csv" `Quick test_table_csv;
        Alcotest.test_case "fmt_float" `Quick test_fmt_float ] ) ]
