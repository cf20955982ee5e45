(* Streaming analyzer: one event-at-a-time interface over all four audits
   plus an incremental serializability check.  Folded over a recorded
   trace without that check, it is the batch analyzer
   ([Analyzer.analyze]).

   The lock and precedence audits were already per-event state machines;
   this module adds the serializability side online.  [Op_implemented]
   events (emitted by the store at each log append) grow an incremental
   conflict graph edge-by-edge with a reduced generation rule:

   - per copy, track the last implemented writer and the readers since
     that write;
   - a write [w] gains edges [last_writer -> w] and, per read instance,
     [reader -> w];
   - a read [u] gains the edge [last_writer -> u].

   Every generated edge corresponds to an adjacent conflicting pair in the
   copy's log, and every batch edge (all conflicting pairs) follows from
   these transitively through the write chain — so the reduced graph is
   acyclic exactly when the full graph is.

   [Reads_discarded] (basic T/O withdrawing an aborted attempt's reads)
   removes exactly the edges attributed to those reads, tracked per
   (transaction, copy), mirroring the batch analyzer's view of the final
   logs.

   With a catalog, the committed prefix is garbage-collected: a committed
   transaction with all of its expected operations implemented
   (write-all: one per copy of each write-set item; read-one: one per
   read-set item) can never gain another in-edge and is retired from the
   graph.  Without a catalog (hand-built traces) GC is off and the graph
   is exact.

   No serializability finding is emitted mid-run: a cycle-closing edge is
   parked (a later discard may dissolve it) and the verdict is settled in
   [report] by {!Ccdb_serial.Incremental.check_deferred}, which matches
   the batch verdict over the final logs on every trace. *)

module Rt = Ccdb_protocols.Runtime
module Inc = Ccdb_serial.Incremental
module Int_tbl = Ccdb_util.Int_tbl
module Lookup = Ccdb_util.Lookup_tbl

type copy_state = {
  mutable last_writer : int option;
  readers_since : int Int_tbl.t;
      (* txn -> reads since last write; a write draws its edges in this
         table's order, so it keeps the generic hash's order *)
}

type ser = {
  graph : Inc.t;
  copies : copy_state Lookup.Pair.t; (* by (item, site) *)
  read_edges : (int * int) list ref Lookup.Triple.t;
      (* (txn, item, site) -> graph edge instances attributed to txn's
         reads there: the in-edge recorded at each read and the out-edges
         to later writes; removed together on Reads_discarded *)
  impl_count : int Lookup.Int.t;
  expected : int Lookup.Int.t; (* set at commit, from the catalog *)
  catalog : Ccdb_storage.Catalog.t option;
}

type state = {
  lock : Lock_audit.state;
  prec : Precedence_audit.state;
  thm : Theorem_audit.state;
  cons : Consensus_audit.state;
  ser : ser option;
  mutable events_fed : int;
  found : Finding.t list ref; (* newest first; every finding the audits raised *)
}

let create ?(theorem2 = true) ?catalog () =
  let found = ref [] in
  let sink f = found := f :: !found in
  { lock = Lock_audit.create sink;
    prec = Precedence_audit.create sink;
    thm = Theorem_audit.create sink;
    cons = Consensus_audit.create sink;
    ser =
      (if theorem2 then
         Some
           { graph = Inc.create (); copies = Lookup.Pair.create 128;
             read_edges = Lookup.Triple.create 128;
             impl_count = Lookup.Int.create 128;
             expected = Lookup.Int.create 128; catalog }
       else None);
    events_fed = 0;
    found }

let copy_state s c =
  match Lookup.Pair.find_opt s.copies c with
  | Some cs -> cs
  | None ->
    let cs = { last_writer = None; readers_since = Int_tbl.create 4 } in
    Lookup.Pair.add s.copies c cs;
    cs

let record_read_edge s txn ~item ~site e =
  match Lookup.Triple.find_opt s.read_edges (txn, item, site) with
  | Some r -> r := e :: !r
  | None -> Lookup.Triple.add s.read_edges (txn, item, site) (ref [ e ])

let bump_impl s txn delta =
  let v =
    match Lookup.Int.find_opt s.impl_count txn with Some v -> v | None -> 0
  in
  Lookup.Int.replace s.impl_count txn (v + delta)

let maybe_retire s txn =
  match Lookup.Int.find_opt s.expected txn with
  | None -> () (* not committed yet, or GC off (no catalog) *)
  | Some expected ->
    let implemented =
      match Lookup.Int.find_opt s.impl_count txn with Some v -> v | None -> 0
    in
    if implemented >= expected then Inc.retire s.graph txn

let ser_feed s (event : Rt.event) =
  match event with
  | Rt.Op_implemented { txn; op; item; site; _ } ->
    let cs = copy_state s (item, site) in
    (match op with
     | Ccdb_model.Op.Read ->
       (match cs.last_writer with
        | Some lw when lw <> txn ->
          ignore
            (Inc.add_edge s.graph ~src:lw ~dst:txn
               ~prov:
                 { Inc.item; site; from_op = Ccdb_model.Op.Write;
                   to_op = Ccdb_model.Op.Read });
          record_read_edge s txn ~item ~site (lw, txn)
        | Some _ | None -> ());
       let reads =
         match Int_tbl.find_opt cs.readers_since txn with
         | Some n -> n
         | None -> 0
       in
       Int_tbl.replace cs.readers_since txn (reads + 1)
     | Ccdb_model.Op.Write ->
       (match cs.last_writer with
        | Some lw when lw <> txn ->
          ignore
            (Inc.add_edge s.graph ~src:lw ~dst:txn
               ~prov:
                 { Inc.item; site; from_op = Ccdb_model.Op.Write;
                   to_op = Ccdb_model.Op.Write })
        | Some _ | None -> ());
       Int_tbl.iter
         (fun u count ->
           if u <> txn then
             for _ = 1 to count do
               ignore
                 (Inc.add_edge s.graph ~src:u ~dst:txn
                    ~prov:
                      { Inc.item; site; from_op = Ccdb_model.Op.Read;
                        to_op = Ccdb_model.Op.Write });
               record_read_edge s u ~item ~site (u, txn)
             done)
         cs.readers_since;
       Int_tbl.reset cs.readers_since;
       cs.last_writer <- Some txn);
    bump_impl s txn 1;
    maybe_retire s txn
  | Rt.Reads_discarded { txn; item; site; removed; _ } ->
    (match Lookup.Triple.find_opt s.read_edges (txn, item, site) with
     | Some r ->
       List.iter (fun (src, dst) -> Inc.remove_edge s.graph ~src ~dst) !r;
       Lookup.Triple.remove s.read_edges (txn, item, site)
     | None -> ());
    (match Lookup.Pair.find_opt s.copies (item, site) with
     | Some cs -> Int_tbl.remove cs.readers_since txn
     | None -> ());
    bump_impl s txn (-removed);
    maybe_retire s txn
  | Rt.Txn_committed { txn; _ } -> (
    match s.catalog with
    | None -> ()
    | Some catalog ->
      let expected =
        List.fold_left
          (fun acc item ->
            acc + List.length (Ccdb_storage.Catalog.copies catalog item))
          (List.length txn.read_set) txn.write_set
      in
      Lookup.Int.replace s.expected txn.id expected;
      maybe_retire s txn.id)
  | _ -> ()

let feed st event =
  let i = st.events_fed in
  st.events_fed <- i + 1;
  Lock_audit.feed st.lock i event;
  Precedence_audit.feed st.prec i event;
  Theorem_audit.feed st.thm i event;
  Consensus_audit.feed st.cons i event;
  match st.ser with Some s -> ser_feed s event | None -> ()

let report ?store st =
  let serializability =
    Option.map (fun s () -> Inc.check_deferred s.graph) st.ser
  in
  Lock_audit.finish st.lock st.events_fed;
  Theorem_audit.finish ?store ?serializability st.thm;
  Consensus_audit.finish st.cons;
  Report.make ~events_scanned:st.events_fed (List.rev !(st.found))

type stats = {
  events_fed : int;
  live_nodes : int;
  collected_nodes : int;
  graph_work : int;
}

let stats st =
  match st.ser with
  | None ->
    { events_fed = st.events_fed; live_nodes = 0; collected_nodes = 0;
      graph_work = 0 }
  | Some s ->
    { events_fed = st.events_fed;
      live_nodes = Inc.live_nodes s.graph;
      collected_nodes = Inc.collected s.graph;
      graph_work = Inc.work s.graph }
