(* Tests for the workload generator. *)

module G = Ccdb_workload.Generator

let check = Alcotest.check

let qtest ?(count = 50) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

let make ?(spec = G.default) ?(sites = 4) ?(items = 16) ?(seed = 1) () =
  G.create spec ~sites ~items (Ccdb_util.Rng.create ~seed)

let test_generate_count_and_order () =
  let g = make () in
  let txns = G.generate g ~n:100 ~start:0. in
  check Alcotest.int "count" 100 (List.length txns);
  let rec increasing = function
    | (a, _) :: ((b, _) :: _ as rest) -> a <= b && increasing rest
    | [ _ ] | [] -> true
  in
  check Alcotest.bool "arrival times increase" true (increasing txns);
  (* ids unique and increasing from 1 *)
  let ids = List.map (fun (_, t) -> t.Ccdb_model.Txn.id) txns in
  check (Alcotest.list Alcotest.int) "ids" (List.init 100 (fun i -> i + 1)) ids

let test_generate_respects_sizes () =
  let spec = { G.default with size_min = 2; size_max = 4 } in
  let g = make ~spec () in
  List.iter
    (fun (_, txn) ->
      let size = Ccdb_model.Txn.size txn in
      if size < 2 || size > 4 then Alcotest.failf "size %d out of range" size)
    (G.generate g ~n:200 ~start:0.)

let test_generate_poisson_rate () =
  let spec = { G.default with arrival_rate = 0.5 } in
  let g = make ~spec () in
  let txns = G.generate g ~n:2000 ~start:0. in
  let last, _ = List.nth txns 1999 in
  let measured = 2000. /. last in
  if abs_float (measured -. 0.5) > 0.05 then
    Alcotest.failf "rate off: %f" measured

let test_read_fraction_extremes () =
  let all_reads = { G.default with read_fraction = 1. } in
  let g = make ~spec:all_reads () in
  List.iter
    (fun (_, txn) ->
      check (Alcotest.list Alcotest.int) "no writes" [] txn.Ccdb_model.Txn.write_set)
    (G.generate g ~n:50 ~start:0.);
  let all_writes = { G.default with read_fraction = 0. } in
  let g = make ~spec:all_writes () in
  List.iter
    (fun (_, txn) ->
      check (Alcotest.list Alcotest.int) "no reads" [] txn.Ccdb_model.Txn.read_set)
    (G.generate g ~n:50 ~start:0.)

let test_protocol_mix () =
  let spec =
    { G.default with
      protocol_mix =
        [ (Ccdb_model.Protocol.T_o, 3.); (Ccdb_model.Protocol.Pa, 1.) ] }
  in
  let g = make ~spec () in
  let txns = G.generate g ~n:1000 ~start:0. in
  let count p =
    List.length
      (List.filter
         (fun (_, t) -> Ccdb_model.Protocol.equal t.Ccdb_model.Txn.protocol p)
         txns)
  in
  check Alcotest.int "no 2PL" 0 (count Ccdb_model.Protocol.Two_pl);
  let t_o = count Ccdb_model.Protocol.T_o in
  if t_o < 650 || t_o > 850 then Alcotest.failf "mix skewed: %d" t_o

let test_hotspot_access () =
  let spec =
    { G.default with
      access = G.Hotspot { hot_items = 2; hot_prob = 0.9 };
      size_min = 1; size_max = 1 }
  in
  let g = make ~spec ~items:100 () in
  let txns = G.generate g ~n:1000 ~start:0. in
  let hot =
    List.length
      (List.filter
         (fun (_, t) ->
           List.for_all (fun i -> i < 2) (Ccdb_model.Txn.accesses t |> List.map fst))
         txns)
  in
  if hot < 800 then Alcotest.failf "hotspot not hot: %d" hot

let test_validate_rejects_nonsense () =
  let bad spec msg =
    match G.validate spec ~items:16 with
    | () -> Alcotest.failf "expected failure: %s" msg
    | exception Invalid_argument _ -> ()
  in
  bad { G.default with arrival_rate = 0. } "rate";
  bad { G.default with size_min = 0 } "size_min";
  bad { G.default with size_max = 99 } "size_max";
  bad { G.default with read_fraction = 1.5 } "fraction";
  bad { G.default with protocol_mix = [] } "mix";
  bad { G.default with access = G.Zipf 0. } "zipf"

let test_sites_in_range () =
  let g = make ~sites:3 () in
  List.iter
    (fun (_, txn) ->
      let site = txn.Ccdb_model.Txn.site in
      if site < 0 || site >= 3 then Alcotest.fail "site out of range")
    (G.generate g ~n:200 ~start:0.)

let prop_items_in_range =
  qtest "generated items within the universe" QCheck.(int_range 1 1000)
    (fun seed ->
      let g = make ~seed ~items:8 () in
      List.for_all
        (fun (_, txn) ->
          List.for_all
            (fun (i, _) -> i >= 0 && i < 8)
            (Ccdb_model.Txn.accesses txn))
        (G.generate g ~n:50 ~start:0.))

let prop_deterministic =
  qtest "same seed, same workload" QCheck.(int_range 1 1000)
    (fun seed ->
      let dump g =
        List.map
          (fun (at, t) -> (at, t.Ccdb_model.Txn.id, t.Ccdb_model.Txn.read_set,
                           t.Ccdb_model.Txn.write_set))
          (G.generate g ~n:30 ~start:0.)
      in
      dump (make ~seed ()) = dump (make ~seed ()))

(* --- distinct items ------------------------------------------------------- *)

(* One transaction of all 20,000 items: each draw is tested against a flag
   per item, so even the last items, drawn after many repeats, cost a
   constant each. *)
let test_draw_every_item () =
  let items = 20_000 in
  List.iter
    (fun access ->
      let spec =
        { G.default with size_min = items; size_max = items; access }
      in
      match G.generate (make ~spec ~items ()) ~n:1 ~start:0. with
      | [ (_, txn) ] ->
        check (Alcotest.list Alcotest.int) "every item once"
          (List.init items Fun.id)
          (List.sort Int.compare (List.map fst (Ccdb_model.Txn.accesses txn)))
      | _ -> Alcotest.fail "one transaction")
    [ G.Uniform; G.Zipf 0.5 ]

(* The generator as it drew before it kept a flag per item: a repeat was
   found by [List.mem] on the items drawn so far.  The flags must reject
   the same draws, so every transaction comes out the same. *)
let reference_generate (spec : G.spec) ~sites ~items rng ~n ~start =
  let sample_item =
    match spec.access with
    | G.Uniform -> fun rng -> Ccdb_util.Rng.int rng items
    | G.Zipf theta -> Ccdb_util.Rng.zipf_sampler ~n:items ~theta
    | G.Hotspot { hot_items; hot_prob } ->
      fun rng ->
        if Ccdb_util.Rng.float rng 1.0 < hot_prob then
          Ccdb_util.Rng.int rng hot_items
        else Ccdb_util.Rng.int rng items
  in
  let rec sample acc n =
    if List.length acc >= n then acc
    else
      let item = sample_item rng in
      if List.mem item acc then sample acc n else sample (item :: acc) n
  in
  let pick_protocol () =
    let total =
      List.fold_left (fun acc (_, w) -> acc +. w) 0. spec.protocol_mix
    in
    let u = Ccdb_util.Rng.float rng total in
    let rec walk acc = function
      | [] -> fst (List.hd spec.protocol_mix)
      | (p, w) :: rest -> if u < acc +. w then p else walk (acc +. w) rest
    in
    walk 0. spec.protocol_mix
  in
  let txn id =
    let size =
      spec.size_min + Ccdb_util.Rng.int rng (spec.size_max - spec.size_min + 1)
    in
    let reads, writes =
      List.partition
        (fun _ -> Ccdb_util.Rng.float rng 1.0 < spec.read_fraction)
        (sample [] size)
    in
    let site = Ccdb_util.Rng.int rng sites in
    let compute_time =
      if spec.compute_mean = 0. then 0.
      else Ccdb_util.Rng.exponential rng ~mean:spec.compute_mean
    in
    Ccdb_model.Txn.make ~id ~site ~read_set:reads ~write_set:writes
      ~compute_time ~protocol:(pick_protocol ())
  in
  let rec go acc at id =
    if id > n then List.rev acc
    else
      let at =
        at +. Ccdb_util.Rng.exponential rng ~mean:(1. /. spec.arrival_rate)
      in
      let t = txn id in
      go ((at, t) :: acc) at (id + 1)
  in
  go [] start 1

(* --- arrivals drawn when due ----------------------------------------------- *)

(* Everything an arrival carries, its times by their bits. *)
let arrival_key (at, (t : Ccdb_model.Txn.t)) =
  ( Int64.bits_of_float at, t.id, t.site, t.read_set, t.write_set,
    Ccdb_model.Protocol.rank t.protocol, Int64.bits_of_float t.compute_time )

(* A random valid spec over [items] items. *)
let random_spec rng ~items =
  let size_min = 1 + Ccdb_util.Rng.int rng 3 in
  let access =
    match Ccdb_util.Rng.int rng 3 with
    | 0 -> G.Uniform
    | 1 -> G.Zipf (0.2 +. Ccdb_util.Rng.float rng 1.5)
    | _ ->
      G.Hotspot
        { hot_items = 1 + Ccdb_util.Rng.int rng items;
          hot_prob = Ccdb_util.Rng.float rng 1. }
  in
  { G.arrival_rate = 0.01 +. Ccdb_util.Rng.float rng 1.;
    size_min;
    size_max = size_min + Ccdb_util.Rng.int rng (items - size_min + 1);
    read_fraction = Ccdb_util.Rng.float rng 1.;
    access;
    compute_mean =
      (if Ccdb_util.Rng.bool rng then 0. else Ccdb_util.Rng.float rng 10.);
    protocol_mix =
      List.map
        (fun p -> (p, 0.1 +. Ccdb_util.Rng.float rng 1.))
        Ccdb_model.Protocol.all }

(* Pulls every arrival, peeking zero, one or two times before each pull. *)
let drain rng s =
  let rec go acc =
    if G.remaining s = 0 then begin
      if Option.is_some (G.peek s) then Alcotest.fail "peek past the end";
      List.rev acc
    end
    else begin
      for _ = 1 to Ccdb_util.Rng.int rng 3 do
        ignore (G.peek s)
      done;
      go (G.pull s :: acc)
    end
  in
  go []

(* The arrivals fed through an engine, member [k] moved [shift] before its
   predecessor when given: the instants they fire at, and whether the
   engine refused a member. *)
let fire arrivals ?out_of_order () =
  let eng = Ccdb_sim.Engine.create () in
  let fired = ref [] in
  let rest = ref arrivals and i = ref 0 in
  let prev = ref 0. in
  Ccdb_sim.Engine.feed eng ~n:(List.length arrivals) (fun () ->
      match !rest with
      | [] -> Alcotest.fail "feed drew past its count"
      | (at, _) :: later ->
        rest := later;
        let at =
          match out_of_order with
          | Some (k, shift) when k = !i -> !prev -. shift
          | Some _ | None -> at
        in
        incr i;
        prev := at;
        (at, fun () -> fired := Ccdb_sim.Engine.now eng :: !fired));
  match Ccdb_sim.Engine.run eng with
  | () -> (List.rev !fired, false)
  | exception Invalid_argument _ -> (List.rev !fired, true)

let prop_streams_equal_eager_draws =
  qtest ~count:200 "streamed arrivals equal generate and phased"
    QCheck.(pair (int_range 0 100_000) (int_range 0 40))
    (fun (seed, n) ->
      let rng = Ccdb_util.Rng.create ~seed in
      let sites = 1 + Ccdb_util.Rng.int rng 6 in
      let items = 4 + Ccdb_util.Rng.int rng 30 in
      let start = Ccdb_util.Rng.float rng 100. in
      let spec = random_spec rng ~items in
      let gen () =
        G.create spec ~sites ~items (Ccdb_util.Rng.create ~seed:(seed + 1))
      in
      let eager = G.generate (gen ()) ~n ~start in
      let streamed = drain rng (G.arrivals (gen ()) ~n ~start) in
      let phases =
        List.init
          (1 + Ccdb_util.Rng.int rng 3)
          (fun _ -> (random_spec rng ~items, 1 + Ccdb_util.Rng.int rng 15))
      in
      let phase_rng () = Ccdb_util.Rng.create ~seed:(seed + 2) in
      let eager_phased = G.phased phases ~sites ~items (phase_rng ()) in
      let streamed_phased =
        drain rng (G.phased_arrivals phases ~sites ~items (phase_rng ()))
      in
      let times = List.map fst eager_phased in
      let in_order, refused = fire eager_phased () in
      let out_of_order =
        match eager_phased with
        | _ :: _ :: _ ->
          let k = 1 + Ccdb_util.Rng.int rng (List.length eager_phased - 1) in
          let shifted, refused =
            fire eager_phased
              ~out_of_order:(k, if Ccdb_util.Rng.bool rng then 1. else nan)
              ()
          in
          (* members before [k] fired; the one that pushes [k] did not *)
          refused && shifted = List.filteri (fun i _ -> i < k - 1) times
        | [ _ ] | [] -> true
      in
      List.map arrival_key streamed = List.map arrival_key eager
      && List.map arrival_key streamed_phased
         = List.map arrival_key eager_phased
      && (not refused) && in_order = times && out_of_order)

(* Uniform, Zipf and hotspot access, half the time with transactions of
   every item. *)
let prop_sampler_matches_reference =
  qtest ~count:200 "generate draws what the List.mem sampler drew"
    QCheck.(pair (int_range 0 100_000) (int_range 0 30))
    (fun (seed, n) ->
      let rng = Ccdb_util.Rng.create ~seed in
      let sites = 1 + Ccdb_util.Rng.int rng 6 in
      let items = 4 + Ccdb_util.Rng.int rng 30 in
      let start = Ccdb_util.Rng.float rng 100. in
      let spec = random_spec rng ~items in
      let spec =
        if Ccdb_util.Rng.bool rng then
          { spec with size_min = items; size_max = items }
        else spec
      in
      List.for_all
        (fun access ->
          let spec = { spec with access } in
          let draws () = Ccdb_util.Rng.create ~seed:(seed + 1) in
          List.map arrival_key
            (G.generate (G.create spec ~sites ~items (draws ())) ~n ~start)
          = List.map arrival_key
              (reference_generate spec ~sites ~items (draws ()) ~n ~start))
        [ G.Uniform;
          G.Zipf (0.2 +. Ccdb_util.Rng.float rng 1.5);
          G.Hotspot
            { hot_items = 1 + Ccdb_util.Rng.int rng items;
              hot_prob = Ccdb_util.Rng.float rng 1. } ])

let test_stream_exhaustion () =
  let s = G.arrivals (make ()) ~n:2 ~start:0. in
  check Alcotest.int "two to pull" 2 (G.remaining s);
  let first = G.peek s in
  check Alcotest.bool "peek keeps it" true (G.peek s == first);
  ignore (G.pull s);
  ignore (G.pull s);
  check Alcotest.bool "nothing left to peek" true (G.peek s = None);
  Alcotest.check_raises "pull past the end"
    (Invalid_argument "Generator.pull: no arrivals left") (fun () ->
      ignore (G.pull s));
  Alcotest.check_raises "negative count"
    (Invalid_argument "Generator.arrivals: negative count") (fun () ->
      ignore (G.arrivals (make ()) ~n:(-1) ~start:0.));
  Alcotest.check_raises "phased validation up front"
    (Invalid_argument "Generator.phased: phase count < 1") (fun () ->
      ignore
        (G.phased_arrivals
           [ (G.default, 3); (G.default, 0) ]
           ~sites:2 ~items:8
           (Ccdb_util.Rng.create ~seed:1)))

let suites =
  [ ( "workload.arrivals",
      [ prop_streams_equal_eager_draws;
        Alcotest.test_case "peek, pull and exhaustion" `Quick
          test_stream_exhaustion ] );
    ( "workload.generator",
      [ Alcotest.test_case "count and order" `Quick test_generate_count_and_order;
        Alcotest.test_case "sizes" `Quick test_generate_respects_sizes;
        Alcotest.test_case "poisson rate" `Quick test_generate_poisson_rate;
        Alcotest.test_case "read fraction extremes" `Quick test_read_fraction_extremes;
        Alcotest.test_case "protocol mix" `Quick test_protocol_mix;
        Alcotest.test_case "hotspot" `Quick test_hotspot_access;
        Alcotest.test_case "validation" `Quick test_validate_rejects_nonsense;
        Alcotest.test_case "sites in range" `Quick test_sites_in_range;
        Alcotest.test_case "every item of 20,000" `Quick test_draw_every_item;
        prop_sampler_matches_reference;
        prop_items_in_range;
        prop_deterministic ] ) ]
