(* Incremental conflict-graph maintenance (Pearce–Kelly).

   The batch oracle ([Conflict_graph.of_logs] + DFS) rebuilds the whole
   graph from the per-copy logs on every check: O(sum of log lengths
   squared).  This module maintains the same graph online:

   - a topological order [ord] over the live nodes, repaired on each edge
     insertion by the Pearce–Kelly algorithm: when the new edge [src ->
     dst] disagrees with the order, a forward DFS from [dst] bounded by
     [ord src] either reaches [src] — a cycle, with the DFS parent chain
     as witness — or yields the affected region, which is reordered by
     merging it with the backward DFS from [src].  Cost is proportional
     to the affected region, not the graph;

   - refcounted multi-edges (the logs generate the same conflict pair
     repeatedly) with the first instance's provenance kept;

   - {e deferred} cycle-closing edges: an insertion that would close a
     cycle is parked instead of applied, because a later
     [Store.discard_reads] may dissolve the cycle (basic T/O withdraws an
     aborted attempt's reads).  Parked edges keep a phantom in-degree on
     their target so garbage collection cannot collect through them.
     [check_deferred] re-applies them at end of trace: the execution is
     non-serializable iff one still closes a cycle — exactly the batch
     verdict over the final logs;

   - committed-prefix garbage collection: [retire] marks a node whose
     transaction is committed and fully implemented (it will never gain
     another in-edge); a retired node with no live or phantom in-edges is
     collected, cascading to successors.  Edges touching a collected node
     are dropped/skipped — a node with provably no in-edges, now or ever,
     cannot lie on a cycle, so the acyclicity verdict is unchanged.

   [work] counts graph steps (edges traversed, nodes reordered,
   insertions, removals, collections) — a deterministic cost measure the
   experiment harness can table without timing anything. *)

module Int_tbl = Ccdb_util.Int_tbl
module Pair_tbl = Ccdb_util.Pair_tbl
module Lookup = Ccdb_util.Lookup_tbl

type provenance = {
  item : int;
  site : int;
  from_op : Ccdb_model.Op.kind;
  to_op : Ccdb_model.Op.kind;
}

type edge = { src : int; dst : int; prov : provenance }

type eref = { mutable e_count : int; e_prov : provenance }

(* The DFS and the collections walk [n_succ], [n_pred] and [deferred] in
   table order, on which the work counts and witnesses may depend: those
   tables keep the generic hash's order.  [nodes], [coll] and the DFS
   [visited] sets are only looked up. *)
type node = {
  n_id : int;
  mutable n_ord : int;
  n_succ : eref Int_tbl.t;
  n_pred : int ref Int_tbl.t; (* src -> instance count, mirrors succ *)
  mutable n_phantom : int;    (* distinct parked in-edges *)
  mutable n_retired : bool;
}

type t = {
  nodes : node Lookup.Int.t;
  coll : unit Lookup.Int.t;
  deferred : (int ref * provenance) Pair_tbl.t;
  mutable next_ord : int;
  mutable n_edges : int; (* distinct live edges *)
  mutable work : int;
}

let create () =
  { nodes = Lookup.Int.create 256; coll = Lookup.Int.create 64;
    deferred = Pair_tbl.create 8; next_ord = 0; n_edges = 0; work = 0 }

let node t id =
  match Lookup.Int.find_opt t.nodes id with
  | Some n -> n
  | None ->
    let n =
      { n_id = id; n_ord = t.next_ord; n_succ = Int_tbl.create 4;
        n_pred = Int_tbl.create 4; n_phantom = 0; n_retired = false }
    in
    t.next_ord <- t.next_ord + 1;
    Lookup.Int.add t.nodes id n;
    n

exception Cycle_found of int list
(* path of node ids [dst; ...; last] where [last] has an edge to [src] *)

(* Forward DFS from [start] over nodes with [ord <= bound]; raises
   [Cycle_found] when [src_id] is reachable, returns the visited nodes
   otherwise. *)
let forward t start ~bound ~src_id =
  let visited = Lookup.Int.create 16 in
  let reached = ref [] in
  let rec go n rev_path =
    Lookup.Int.replace visited n.n_id ();
    reached := n :: !reached;
    Int_tbl.iter
      (fun d _ ->
        t.work <- t.work + 1;
        if d = src_id then raise (Cycle_found (List.rev rev_path))
        else if not (Lookup.Int.mem visited d) then
          match Lookup.Int.find_opt t.nodes d with
          | Some nd when nd.n_ord <= bound -> go nd (d :: rev_path)
          | Some _ | None -> ())
      n.n_succ
  in
  go start [ start.n_id ];
  !reached

(* Backward DFS from [start] over nodes with [ord >= lb]. *)
let backward t start ~lb =
  let visited = Lookup.Int.create 16 in
  let reached = ref [] in
  let rec go n =
    Lookup.Int.replace visited n.n_id ();
    reached := n :: !reached;
    Int_tbl.iter
      (fun p _ ->
        t.work <- t.work + 1;
        if not (Lookup.Int.mem visited p) then
          match Lookup.Int.find_opt t.nodes p with
          | Some np when np.n_ord >= lb -> go np
          | Some _ | None -> ())
      n.n_pred
  in
  go start;
  !reached

(* Pearce–Kelly repair: the backward region (ending at src) must precede
   the forward region (starting at dst); reuse the union's order slots. *)
let reorder t rb rf =
  let by_ord = List.sort (fun a b -> Int.compare a.n_ord b.n_ord) in
  let affected = by_ord rb @ by_ord rf in
  let slots = List.sort Int.compare (List.map (fun n -> n.n_ord) affected) in
  List.iter2
    (fun n o ->
      t.work <- t.work + 1;
      n.n_ord <- o)
    affected slots

let prov_between t a b =
  match Lookup.Int.find_opt t.nodes a with
  | Some na -> (
    match Int_tbl.find_opt na.n_succ b with
    | Some er -> er.e_prov
    | None -> invalid_arg "Incremental: witness edge vanished")
  | None -> invalid_arg "Incremental: witness node vanished"

(* The DFS found [path = dst; ...; last] with an edge [last -> src]; the
   witness walks the cycle starting from the offending edge. *)
let mk_witness t ~src ~dst ~prov path =
  let rec links = function
    | [] -> []
    | [ last ] -> [ { src = last; dst = src; prov = prov_between t last src } ]
    | a :: (b :: _ as rest) ->
      { src = a; dst = b; prov = prov_between t a b } :: links rest
  in
  { src; dst; prov } :: links path

let insert_live t ns nd prov =
  Int_tbl.replace ns.n_succ nd.n_id { e_count = 1; e_prov = prov };
  Int_tbl.replace nd.n_pred ns.n_id (ref 1);
  t.n_edges <- t.n_edges + 1

(* Attempt a live insertion; [Some witness] when it would close a cycle
   (the graph is then unchanged). *)
let try_insert t ~src ~dst ~prov =
  let ns = node t src in
  let nd = node t dst in
  match Int_tbl.find_opt ns.n_succ dst with
  | Some er ->
    t.work <- t.work + 1;
    er.e_count <- er.e_count + 1;
    (match Int_tbl.find_opt nd.n_pred src with
     | Some r -> incr r
     | None -> invalid_arg "Incremental: succ/pred tables diverged");
    None
  | None ->
    t.work <- t.work + 1;
    if ns.n_ord < nd.n_ord then begin
      insert_live t ns nd prov;
      None
    end
    else begin
      match forward t nd ~bound:ns.n_ord ~src_id:src with
      | exception Cycle_found path -> Some (mk_witness t ~src ~dst ~prov path)
      | rf ->
        let rb = backward t ns ~lb:nd.n_ord in
        reorder t rb rf;
        insert_live t ns nd prov;
        None
    end

let add_edge t ~src ~dst ~prov =
  t.work <- t.work + 1;
  if src = dst || Lookup.Int.mem t.coll src || Lookup.Int.mem t.coll dst then
    None
  else
    match Pair_tbl.find_opt t.deferred (src, dst) with
    | Some (c, _) ->
      (* already parked as cycle-closing: park the extra instance too *)
      incr c;
      None
    | None -> (
      match try_insert t ~src ~dst ~prov with
      | None -> None
      | Some w ->
        Pair_tbl.replace t.deferred (src, dst) (ref 1, prov);
        let nd = node t dst in
        nd.n_phantom <- nd.n_phantom + 1;
        Some w)

(* Collect a retired node once nothing can ever point into it; removing
   its out-edges may expose successors, so the collection cascades. *)
let rec collect_if_ready t n =
  if
    n.n_retired && n.n_phantom = 0
    && Int_tbl.length n.n_pred = 0
    && Lookup.Int.mem t.nodes n.n_id
  then begin
    Lookup.Int.remove t.nodes n.n_id;
    Lookup.Int.replace t.coll n.n_id ();
    t.work <- t.work + 1;
    let succs = Int_tbl.fold (fun d _ acc -> d :: acc) n.n_succ [] in
    List.iter
      (fun d ->
        t.work <- t.work + 1;
        t.n_edges <- t.n_edges - 1;
        match Lookup.Int.find_opt t.nodes d with
        | Some nd ->
          Int_tbl.remove nd.n_pred n.n_id;
          collect_if_ready t nd
        | None -> ())
      succs;
    (* parked out-edges of a collected node can never close a cycle *)
    let parked =
      Pair_tbl.fold
        (fun (s, d) _ acc -> if s = n.n_id then (s, d) :: acc else acc)
        t.deferred []
    in
    List.iter
      (fun (s, d) ->
        t.work <- t.work + 1;
        Pair_tbl.remove t.deferred (s, d);
        match Lookup.Int.find_opt t.nodes d with
        | Some nd ->
          nd.n_phantom <- nd.n_phantom - 1;
          collect_if_ready t nd
        | None -> ())
      parked
  end

let remove_deferred t ~src ~dst =
  match Pair_tbl.find_opt t.deferred (src, dst) with
  | Some (c, _) ->
    if !c > 1 then decr c
    else begin
      Pair_tbl.remove t.deferred (src, dst);
      match Lookup.Int.find_opt t.nodes dst with
      | Some nd ->
        nd.n_phantom <- nd.n_phantom - 1;
        collect_if_ready t nd
      | None -> ()
    end
  | None -> () (* tolerant: endpoint collected or edge never applied *)

let remove_edge t ~src ~dst =
  t.work <- t.work + 1;
  match Lookup.Int.find_opt t.nodes src with
  | None -> remove_deferred t ~src ~dst
  | Some ns -> (
    match Int_tbl.find_opt ns.n_succ dst with
    | None -> remove_deferred t ~src ~dst
    | Some er ->
      let nd = node t dst in
      if er.e_count > 1 then begin
        er.e_count <- er.e_count - 1;
        match Int_tbl.find_opt nd.n_pred src with
        | Some r -> decr r
        | None -> invalid_arg "Incremental: succ/pred tables diverged"
      end
      else begin
        Int_tbl.remove ns.n_succ dst;
        Int_tbl.remove nd.n_pred src;
        t.n_edges <- t.n_edges - 1;
        collect_if_ready t nd
      end)

let retire t id =
  t.work <- t.work + 1;
  if not (Lookup.Int.mem t.coll id) then begin
    let n = node t id in
    n.n_retired <- true;
    collect_if_ready t n
  end

let check_deferred t =
  let parked = Pair_tbl.fold (fun k v acc -> (k, v) :: acc) t.deferred [] in
  let parked =
    List.sort
      (fun ((a, b), _) ((c, d), _) ->
        match Int.compare a c with 0 -> Int.compare b d | o -> o)
      parked
  in
  Pair_tbl.reset t.deferred;
  let rec go = function
    | [] -> None
    | ((src, dst), (_, prov)) :: rest -> (
      (match Lookup.Int.find_opt t.nodes dst with
       | Some nd -> nd.n_phantom <- nd.n_phantom - 1
       | None -> ());
      match try_insert t ~src ~dst ~prov with
      | None -> go rest
      | Some w -> Some w)
  in
  go parked

let live_nodes t = Lookup.Int.length t.nodes
let live_edges t = t.n_edges
let collected t = Lookup.Int.length t.coll
let deferred_edges t = Pair_tbl.length t.deferred
let work t = t.work
