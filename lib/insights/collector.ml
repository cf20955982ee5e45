module Rt = Ccdb_protocols.Runtime
module Lookup = Ccdb_util.Lookup_tbl
module Histogram = Ccdb_util.Histogram

let schema_version = "ccdb-insights/1"

type class_stats = {
  fingerprint : Fingerprint.t;
  committed : int;
  restarts : int;
  latency : Histogram.t;
}

type contention = {
  c_protocol : Ccdb_model.Protocol.t;
  c_item : int;
  waits : int;
  wait_time : float;
  rejections : int;
  backoffs : int;
}

type window = {
  index : int;
  w_start : float;
  w_end : float;
  w_committed : int;
  w_restarts : int;
  w_conflicts : int;
  w_grants_read : int;
  w_grants_write : int;
  w_latency_sum : float;
  w_by_protocol : (Ccdb_model.Protocol.t * int) list;
}

(* mutable accumulators; frozen into the public records on read *)
type class_acc = {
  mutable a_committed : int;
  mutable a_restarts : int;
  a_latency : Histogram.t;
}

type cont_acc = {
  a_protocol : Ccdb_model.Protocol.t;
  a_item : int;
  mutable a_waits : int;
  mutable a_wait_time : float;
  mutable a_rejections : int;
  mutable a_backoffs : int;
}

type win_acc = {
  mutable w_committed' : int;
  mutable w_restarts' : int;
  mutable w_conflicts' : int;
  mutable w_grants_read' : int;
  mutable w_grants_write' : int;
  mutable w_latency_sum' : float;
  w_protocols : int array; (* commits by [Protocol.rank] *)
}

module Class_tbl = Hashtbl.Make (struct
  type t = Fingerprint.t

  let equal (a : t) b = Fingerprint.compare a b = 0

  let hash (f : t) =
    (((f.reads * 65599) + f.writes) * 4) + Ccdb_model.Protocol.rank f.protocol
end)

(* No table here is read in its own order: fingerprints and contention are
   sorted, windows are looked up by index. *)
type t = {
  rt : Rt.t;
  width : float;
  started_at : float;
  classes : class_acc Class_tbl.t;
  cont : cont_acc Lookup.Pair.t; (* by (protocol rank, item) *)
  wins : win_acc Lookup.Int.t;
  mutable last_win : int;
  (* (txn, item, site) -> request time, for queue-wait measurement *)
  pending : float Lookup.Triple.t;
}

let win t at =
  let idx = Int.max 0 (int_of_float ((at -. t.started_at) /. t.width)) in
  t.last_win <- Int.max t.last_win idx;
  match Lookup.Int.find_opt t.wins idx with
  | Some w -> w
  | None ->
    let w =
      { w_committed' = 0; w_restarts' = 0; w_conflicts' = 0;
        w_grants_read' = 0; w_grants_write' = 0; w_latency_sum' = 0.;
        w_protocols = Array.make (List.length Ccdb_model.Protocol.all) 0 }
    in
    Lookup.Int.add t.wins idx w;
    w

let class_acc t fp =
  match Class_tbl.find_opt t.classes fp with
  | Some a -> a
  | None ->
    let a = { a_committed = 0; a_restarts = 0; a_latency = Histogram.create () } in
    Class_tbl.add t.classes fp a;
    a

let cont_acc t protocol item =
  let key = (Ccdb_model.Protocol.rank protocol, item) in
  match Lookup.Pair.find_opt t.cont key with
  | Some a -> a
  | None ->
    let a =
      { a_protocol = protocol; a_item = item; a_waits = 0; a_wait_time = 0.;
        a_rejections = 0; a_backoffs = 0 }
    in
    Lookup.Pair.add t.cont key a;
    a

let on_event t = function
  | Rt.Lock_requested { txn; protocol; item; site; outcome; at; _ } -> (
    match outcome with
    | Rt.Req_rejected ->
      let c = cont_acc t protocol item in
      c.a_rejections <- c.a_rejections + 1;
      let w = win t at in
      w.w_conflicts' <- w.w_conflicts' + 1
    | Rt.Req_backoff _ ->
      let c = cont_acc t protocol item in
      c.a_backoffs <- c.a_backoffs + 1;
      let w = win t at in
      w.w_conflicts' <- w.w_conflicts' + 1;
      Lookup.Triple.replace t.pending (txn, item, site) at
    | Rt.Req_admitted -> Lookup.Triple.replace t.pending (txn, item, site) at
    | Rt.Req_ignored -> ())
  | Rt.Lock_granted { txn; protocol; op; item; site; at; _ } ->
    let w = win t at in
    (match op with
     | Ccdb_model.Op.Read -> w.w_grants_read' <- w.w_grants_read' + 1
     | Ccdb_model.Op.Write -> w.w_grants_write' <- w.w_grants_write' + 1);
    (match Lookup.Triple.find_opt t.pending (txn, item, site) with
     | None -> ()
     | Some requested_at ->
       Lookup.Triple.remove t.pending (txn, item, site);
       let wait = at -. requested_at in
       if wait > 0. then begin
         let c = cont_acc t protocol item in
         c.a_waits <- c.a_waits + 1;
         c.a_wait_time <- c.a_wait_time +. wait
       end)
  | Rt.Request_withdrawn { txn; item; site; _ }
  | Rt.Request_dropped { txn; item; site; _ } ->
    Lookup.Triple.remove t.pending (txn, item, site)
  | Rt.Txn_committed { txn; submitted_at; executed_at; _ } ->
    let latency = executed_at -. submitted_at in
    let a = class_acc t (Fingerprint.of_txn txn) in
    a.a_committed <- a.a_committed + 1;
    Histogram.record_span a.a_latency ~from:submitted_at ~until:executed_at;
    let w = win t executed_at in
    w.w_committed' <- w.w_committed' + 1;
    w.w_latency_sum' <- w.w_latency_sum' +. latency;
    let p = Ccdb_model.Protocol.rank txn.protocol in
    w.w_protocols.(p) <- w.w_protocols.(p) + 1
  | Rt.Txn_restarted { txn; at; _ } ->
    let a = class_acc t (Fingerprint.of_txn txn) in
    a.a_restarts <- a.a_restarts + 1;
    let w = win t at in
    w.w_restarts' <- w.w_restarts' + 1
  | Rt.Deadlock_detected { at; _ } ->
    let w = win t at in
    w.w_conflicts' <- w.w_conflicts' + 1
  | Rt.Lock_promoted _ | Rt.Lock_transformed _ | Rt.Lock_released _
  | Rt.Ts_updated _ | Rt.Pa_backoff _ | Rt.Site_crashed _
  | Rt.Site_recovered _ | Rt.Site_wiped _ | Rt.Wal_replayed _ | Rt.Prepared _
  | Rt.Decision_logged _ | Rt.Acceptor_promised _ | Rt.Acceptor_accepted _
  | Rt.Op_implemented _ | Rt.Reads_discarded _ -> ()

let attach ?(window = 200.) rt =
  if window <= 0. then invalid_arg "Collector.attach: window <= 0";
  let t =
    { rt; width = window; started_at = Rt.now rt;
      classes = Class_tbl.create 16; cont = Lookup.Pair.create 64;
      wins = Lookup.Int.create 16; last_win = 0;
      pending = Lookup.Triple.create 64 }
  in
  Rt.observe rt (on_event t);
  t

let fingerprints t =
  Class_tbl.fold
    (fun fingerprint a acc ->
      { fingerprint; committed = a.a_committed; restarts = a.a_restarts;
        latency = a.a_latency }
      :: acc)
    t.classes []
  |> List.sort (fun a b -> Fingerprint.compare a.fingerprint b.fingerprint)

let contention t =
  Lookup.Pair.fold
    (fun _ a acc ->
      if a.a_waits = 0 && a.a_rejections = 0 && a.a_backoffs = 0 then acc
      else
        { c_protocol = a.a_protocol; c_item = a.a_item; waits = a.a_waits;
          wait_time = a.a_wait_time; rejections = a.a_rejections;
          backoffs = a.a_backoffs }
        :: acc)
    t.cont []
  |> List.sort (fun a b ->
         match
           Int.compare (b.rejections + b.backoffs) (a.rejections + a.backoffs)
         with
         | 0 -> (
           match Float.compare b.wait_time a.wait_time with
           | 0 -> (
             match Ccdb_model.Protocol.compare a.c_protocol b.c_protocol with
             | 0 -> Int.compare a.c_item b.c_item
             | c -> c)
           | c -> c)
         | c -> c)

let windows t =
  List.init (t.last_win + 1) (fun index ->
      let w_start = t.started_at +. (float_of_int index *. t.width) in
      let w_end = w_start +. t.width in
      match Lookup.Int.find_opt t.wins index with
      | None ->
        { index; w_start; w_end; w_committed = 0; w_restarts = 0;
          w_conflicts = 0; w_grants_read = 0; w_grants_write = 0;
          w_latency_sum = 0.;
          w_by_protocol = List.map (fun p -> (p, 0)) Ccdb_model.Protocol.all }
      | Some w ->
        { index; w_start; w_end; w_committed = w.w_committed';
          w_restarts = w.w_restarts'; w_conflicts = w.w_conflicts';
          w_grants_read = w.w_grants_read';
          w_grants_write = w.w_grants_write';
          w_latency_sum = w.w_latency_sum';
          w_by_protocol =
            List.map
              (fun p -> (p, w.w_protocols.(Ccdb_model.Protocol.rank p)))
              Ccdb_model.Protocol.all })

let to_json t =
  let open Ccdb_util.Json in
  let num_i n = Num (float_of_int n) in
  let pname p = Ccdb_model.Protocol.to_string p in
  let fps = fingerprints t in
  let fp_j (c : class_stats) =
    Obj
      [ ("fingerprint", Str (Fingerprint.to_string c.fingerprint));
        ("reads", num_i c.fingerprint.Fingerprint.reads);
        ("writes", num_i c.fingerprint.Fingerprint.writes);
        ("protocol", Str (pname c.fingerprint.Fingerprint.protocol));
        ("committed", num_i c.committed); ("restarts", num_i c.restarts);
        ("latency", Histogram.to_json c.latency) ]
  in
  let cont_j (c : contention) =
    Obj
      [ ("protocol", Str (pname c.c_protocol)); ("item", num_i c.c_item);
        ("waits", num_i c.waits); ("wait_time", Num c.wait_time);
        ("rejections", num_i c.rejections); ("backoffs", num_i c.backoffs) ]
  in
  let win_j (w : window) =
    Obj
      [ ("index", num_i w.index); ("start", Num w.w_start);
        ("end", Num w.w_end); ("committed", num_i w.w_committed);
        ("restarts", num_i w.w_restarts); ("conflicts", num_i w.w_conflicts);
        ("grants_read", num_i w.w_grants_read);
        ("grants_write", num_i w.w_grants_write);
        ( "mean_latency",
          if w.w_committed = 0 then Null
          else Num (w.w_latency_sum /. float_of_int w.w_committed) );
        ( "protocols",
          Obj (List.map (fun (p, n) -> (pname p, num_i n)) w.w_by_protocol) ) ]
  in
  let committed = List.fold_left (fun acc c -> acc + c.committed) 0 fps in
  let restarts = List.fold_left (fun acc c -> acc + c.restarts) 0 fps in
  Obj
    [ ("schema", Str schema_version); ("window", Num t.width);
      ("started_at", Num t.started_at); ("ended_at", Num (Rt.now t.rt));
      ("committed", num_i committed); ("restarts", num_i restarts);
      ("fingerprints", List (List.map fp_j fps));
      ("contention", List (List.map cont_j (contention t)));
      ("windows", List (List.map win_j (windows t))) ]

(* ------------------------------------------------------------- validate *)

let validate doc =
  let open Ccdb_util.Json in
  let ( let* ) = Result.bind in
  let field ctx name check j =
    match member name j with
    | None -> Error (Printf.sprintf "%s: missing field %S" ctx name)
    | Some v ->
      if check v then Ok ()
      else Error (Printf.sprintf "%s: field %S has the wrong type" ctx name)
  in
  let is_num = function Num _ -> true | _ -> false in
  let is_str = function Str _ -> true | _ -> false in
  let is_obj = function Obj _ -> true | _ -> false in
  let each ctx name check j =
    match Option.bind (member name j) to_list with
    | None -> Error (Printf.sprintf "%s: missing list %S" ctx name)
    | Some entries ->
      let rec go i = function
        | [] -> Ok ()
        | e :: rest ->
          let* () = check (Printf.sprintf "%s.%s[%d]" ctx name i) e in
          go (i + 1) rest
      in
      go 0 entries
  in
  let histogram ctx j =
    let* () = field ctx "count" is_num j in
    each ctx "buckets" (fun ctx b ->
        let* () = field ctx "bucket" is_num b in
        let* () = field ctx "lo" is_num b in
        let* () = field ctx "hi" is_num b in
        field ctx "n" is_num b)
      j
  in
  let fingerprint ctx e =
    let* () = field ctx "fingerprint" is_str e in
    let* () = field ctx "reads" is_num e in
    let* () = field ctx "writes" is_num e in
    let* () = field ctx "protocol" is_str e in
    let* () = field ctx "committed" is_num e in
    let* () = field ctx "restarts" is_num e in
    match member "latency" e with
    | None -> Error (ctx ^ ": missing field \"latency\"")
    | Some h -> histogram (ctx ^ ".latency") h
  in
  let contention ctx e =
    let* () = field ctx "protocol" is_str e in
    let* () = field ctx "item" is_num e in
    let* () = field ctx "waits" is_num e in
    let* () = field ctx "wait_time" is_num e in
    let* () = field ctx "rejections" is_num e in
    field ctx "backoffs" is_num e
  in
  let window ctx e =
    let* () = field ctx "index" is_num e in
    let* () = field ctx "start" is_num e in
    let* () = field ctx "end" is_num e in
    let* () = field ctx "committed" is_num e in
    let* () = field ctx "restarts" is_num e in
    let* () = field ctx "conflicts" is_num e in
    let* () = field ctx "grants_read" is_num e in
    let* () = field ctx "grants_write" is_num e in
    field ctx "protocols" is_obj e
  in
  match member "schema" doc with
  | Some (Str v) when v = schema_version ->
    let* () = field "doc" "window" is_num doc in
    let* () = field "doc" "started_at" is_num doc in
    let* () = field "doc" "ended_at" is_num doc in
    let* () = field "doc" "committed" is_num doc in
    let* () = field "doc" "restarts" is_num doc in
    let* () = each "doc" "fingerprints" fingerprint doc in
    let* () = each "doc" "contention" contention doc in
    each "doc" "windows" window doc
  | Some (Str v) ->
    Error (Printf.sprintf "doc: schema %S, expected %S" v schema_version)
  | Some _ | None -> Error "doc: missing schema string"
