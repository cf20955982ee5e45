type access =
  | Uniform
  | Zipf of float
  | Hotspot of { hot_items : int; hot_prob : float }

type spec = {
  arrival_rate : float;
  size_min : int;
  size_max : int;
  read_fraction : float;
  access : access;
  compute_mean : float;
  protocol_mix : (Ccdb_model.Protocol.t * float) list;
}

let default =
  { arrival_rate = 0.05; size_min = 1; size_max = 3; read_fraction = 0.5;
    access = Uniform; compute_mean = 5.;
    protocol_mix = [ (Ccdb_model.Protocol.Two_pl, 1.) ] }

let validate spec ~items =
  if spec.arrival_rate <= 0. then invalid_arg "Generator: arrival_rate <= 0";
  if spec.size_min < 1 || spec.size_min > spec.size_max then
    invalid_arg "Generator: bad size range";
  if spec.size_max > items then invalid_arg "Generator: size_max > items";
  if spec.read_fraction < 0. || spec.read_fraction > 1. then
    invalid_arg "Generator: read_fraction out of [0,1]";
  if spec.compute_mean < 0. then invalid_arg "Generator: negative compute_mean";
  if spec.protocol_mix = [] then invalid_arg "Generator: empty protocol mix";
  if List.exists (fun (_, w) -> w < 0.) spec.protocol_mix then
    invalid_arg "Generator: negative mix weight";
  if List.fold_left (fun acc (_, w) -> acc +. w) 0. spec.protocol_mix <= 0. then
    invalid_arg "Generator: zero-weight mix";
  (match spec.access with
   | Uniform -> ()
   | Zipf theta -> if theta <= 0. then invalid_arg "Generator: zipf theta <= 0"
   | Hotspot { hot_items; hot_prob } ->
     if hot_items < 1 || hot_items > items then
       invalid_arg "Generator: hotspot size out of range";
     if hot_prob < 0. || hot_prob > 1. then
       invalid_arg "Generator: hot_prob out of [0,1]")

type t = {
  spec : spec;
  sites : int;
  rng : Ccdb_util.Rng.t;
  sample_item : Ccdb_util.Rng.t -> int;
  drawn : Bytes.t;  (* per item, whether the transaction being drawn has it *)
  mutable next_id : int;
}

let create spec ~sites ~items rng =
  validate spec ~items;
  if sites < 1 then invalid_arg "Generator: sites < 1";
  let sample_item =
    match spec.access with
    | Uniform -> fun rng -> Ccdb_util.Rng.int rng items
    | Zipf theta -> Ccdb_util.Rng.zipf_sampler ~n:items ~theta
    | Hotspot { hot_items; hot_prob } ->
      fun rng ->
        if Ccdb_util.Rng.float rng 1.0 < hot_prob then
          Ccdb_util.Rng.int rng hot_items
        else Ccdb_util.Rng.int rng items
  in
  { spec; sites; rng; sample_item; drawn = Bytes.make items '\000';
    next_id = 1 }

let pick_protocol t =
  let total = List.fold_left (fun acc (_, w) -> acc +. w) 0. t.spec.protocol_mix in
  let u = Ccdb_util.Rng.float t.rng total in
  let rec walk acc = function
    | [] -> fst (List.hd t.spec.protocol_mix)
    | (p, w) :: rest -> if u < acc +. w then p else walk (acc +. w) rest
  in
  walk 0. t.spec.protocol_mix

(* [n - k] more distinct items via rejection: a draw the transaction
   already has is drawn again *)
let rec fill t n acc k =
  if k >= n then acc
  else
    let item = t.sample_item t.rng in
    if Bytes.get t.drawn item <> '\000' then fill t n acc k
    else begin
      Bytes.set t.drawn item '\001';
      fill t n (item :: acc) (k + 1)
    end

let rec clear drawn = function
  | [] -> ()
  | item :: rest ->
    Bytes.set drawn item '\000';
    clear drawn rest

(* [n] distinct items, newest first; the flags are cleared again for the
   next transaction *)
let sample_items t n =
  let items = fill t n [] 0 in
  clear t.drawn items;
  items

let next_txn t =
  let size =
    t.spec.size_min
    + Ccdb_util.Rng.int t.rng (t.spec.size_max - t.spec.size_min + 1)
  in
  let items = sample_items t size in
  let reads, writes =
    List.partition
      (fun _ -> Ccdb_util.Rng.float t.rng 1.0 < t.spec.read_fraction)
      items
  in
  (* a transaction needs at least one access; the partition preserves that *)
  let site = Ccdb_util.Rng.int t.rng t.sites in
  let compute_time =
    if t.spec.compute_mean = 0. then 0.
    else Ccdb_util.Rng.exponential t.rng ~mean:t.spec.compute_mean
  in
  let id = t.next_id in
  t.next_id <- id + 1;
  Ccdb_model.Txn.make ~id ~site ~read_set:reads ~write_set:writes
    ~compute_time ~protocol:(pick_protocol t)

(* A stream draws each arrival when it is pulled, in the order [generate]
   and [phased] draw them all: the gap, then the transaction. *)
type arrivals = {
  mutable current : t;
  mutable left : int;              (* arrivals the current phase still draws *)
  mutable later : (t * int) list;  (* the phases after it *)
  mutable at : float;              (* the latest arrival drawn *)
  mutable remaining : int;         (* arrivals not yet pulled *)
  mutable peeked : (float * Ccdb_model.Txn.t) option;
}

let arrivals t ~n ~start =
  if n < 0 then invalid_arg "Generator.arrivals: negative count";
  { current = t; left = n; later = []; at = start; remaining = n;
    peeked = None }

let phased_arrivals phases ~sites ~items rng =
  let gens =
    List.map
      (fun (spec, n) ->
        if n < 1 then invalid_arg "Generator.phased: phase count < 1";
        (create spec ~sites ~items rng, n))
      phases
  in
  match gens with
  | [] -> invalid_arg "Generator.phased: no phases"
  | (first, n) :: later ->
    { current = first; left = n; later; at = 0.;
      remaining = List.fold_left (fun acc (_, n) -> acc + n) 0 gens;
      peeked = None }

let remaining s = s.remaining

let draw s =
  while s.left = 0 do
    (* the current phase is spent: the next continues its ids and clock *)
    match s.later with
    | (gen, n) :: rest ->
      gen.next_id <- s.current.next_id;
      s.current <- gen;
      s.left <- n;
      s.later <- rest
    | [] -> invalid_arg "Generator.pull: no arrivals left"
  done;
  let t = s.current in
  let at =
    s.at +. Ccdb_util.Rng.exponential t.rng ~mean:(1. /. t.spec.arrival_rate)
  in
  let txn = next_txn t in
  s.at <- at;
  s.left <- s.left - 1;
  (at, txn)

let peek s =
  match s.peeked with
  | Some _ as next -> next
  | None ->
    if s.remaining = 0 then None
    else begin
      s.peeked <- Some (draw s);
      s.peeked
    end

let pull s =
  if s.remaining = 0 then invalid_arg "Generator.pull: no arrivals left";
  s.remaining <- s.remaining - 1;
  match s.peeked with
  | Some next ->
    s.peeked <- None;
    next
  | None -> draw s

(* The eager draws, kept as the specification the streams are tested
   against. *)
let generate t ~n ~start =
  let mean_gap = 1. /. t.spec.arrival_rate in
  let rec go acc at remaining =
    if remaining = 0 then List.rev acc
    else
      let at = at +. Ccdb_util.Rng.exponential t.rng ~mean:mean_gap in
      let txn = next_txn t in
      go ((at, txn) :: acc) at (remaining - 1)
  in
  go [] start n

let phased phases ~sites ~items rng =
  if phases = [] then invalid_arg "Generator.phased: no phases";
  let _, _, rev =
    List.fold_left
      (fun (next_id, start, acc) (spec, n) ->
        if n < 1 then invalid_arg "Generator.phased: phase count < 1";
        let gen = create spec ~sites ~items rng in
        gen.next_id <- next_id;
        let arrivals = generate gen ~n ~start in
        let last_at =
          match arrivals with [] -> start | _ -> fst (List.nth arrivals (n - 1))
        in
        (gen.next_id, last_at, List.rev_append arrivals acc))
      (1, 0., []) phases
  in
  List.rev rev

let pp_access ppf = function
  | Uniform -> Format.pp_print_string ppf "uniform"
  | Zipf theta -> Format.fprintf ppf "zipf(%.2f)" theta
  | Hotspot { hot_items; hot_prob } ->
    Format.fprintf ppf "hotspot(%d@%.2f)" hot_items hot_prob

let pp_spec ppf spec =
  Format.fprintf ppf
    "lambda=%.3f st=%d..%d qr=%.2f access=%a compute=%.1f" spec.arrival_rate
    spec.size_min spec.size_max spec.read_fraction pp_access spec.access
    spec.compute_mean
