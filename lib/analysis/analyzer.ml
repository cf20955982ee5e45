module Rt = Ccdb_protocols.Runtime

let fold ?store ?catalog ~theorem2 (events : Rt.event array) =
  let st = Stream.create ~theorem2 ?catalog () in
  Array.iter (Stream.feed st) events;
  Stream.report ?store st

let analyze_stream ?store ?catalog events =
  fold ?store ?catalog ~theorem2:true events

(* Without the incremental graph, [Theorem_audit.finish] decides Theorem 2
   by scanning the store's logs: the batch verdict. *)
let analyze ?store events = fold ?store ~theorem2:false events

(* Batch/stream divergence: the two paths share the audit code, so every
   finding must match field-for-field — except thm.not-serializable, whose
   witness (and hence txns/cycle) legitimately differs between the batch
   DFS and the incremental insertion order; those are compared by count. *)
let diff ~batch ~stream =
  let ns = Theorem_audit.not_serializable in
  let key (f : Finding.t) =
    ( Finding.severity_to_string f.severity, f.check, f.event_index, f.txns,
      f.copy, f.message )
  in
  let multiset r =
    Report.findings r
    |> List.filter (fun (f : Finding.t) -> f.check <> ns)
    |> List.map key |> List.sort compare
  in
  let ns_count r =
    List.length
      (List.filter (fun (f : Finding.t) -> f.check = ns) (Report.findings r))
  in
  let out = ref [] in
  if Report.events_scanned batch <> Report.events_scanned stream then
    out :=
      Printf.sprintf "events scanned: batch %d vs stream %d"
        (Report.events_scanned batch)
        (Report.events_scanned stream)
      :: !out;
  let b = multiset batch and s = multiset stream in
  if b <> s then begin
    let describe (sev, check, idx, txns, _copy, msg) =
      Printf.sprintf "%s %s%s {%s} %s" sev check
        (match idx with Some i -> Printf.sprintf " @%d" i | None -> "")
        (String.concat "," (List.map string_of_int txns))
        msg
    in
    let missing l l' = List.filter (fun x -> not (List.mem x l')) l in
    List.iter
      (fun k -> out := ("only in batch: " ^ describe k) :: !out)
      (missing b s);
    List.iter
      (fun k -> out := ("only in stream: " ^ describe k) :: !out)
      (missing s b)
  end;
  let bn = ns_count batch and sn = ns_count stream in
  if bn <> sn then
    out :=
      Printf.sprintf "%s count: batch %d vs stream %d" ns bn sn :: !out;
  List.rev !out
