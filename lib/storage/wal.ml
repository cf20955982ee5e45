type action = {
  item : int;
  op : Ccdb_model.Op.kind;
  value : int option;
  attempt : int;
  granted_at : float;
}

type record =
  | Admit of { txn : int; item : int; op : Ccdb_model.Op.kind; ts : int }
  | Grant of { txn : int; item : int; op : Ccdb_model.Op.kind; ts : int option }
  | Revoke of { txn : int; item : int }
  | Release of { txn : int; item : int; op : Ccdb_model.Op.kind; aborted : bool }
  | Prewrite of { txn : int; round : int; action : action }
  | Vote of { txn : int; round : int; coordinator : int }
  | Decision of { txn : int; round : int; commit : bool }
  | Applied of { txn : int; round : int }
  | Acceptor_promise of { txn : int; round : int; ballot : int }
  | Acceptor_accept of {
      txn : int;
      round : int;
      instance : int;
      ballot : int;
      prepared : bool;
      home : int;
      psites : int list;
    }

type entry = { at : float; record : record }

type t = {
  logs : entry list array; (* newest first *)
  counts : int array;
  mutable total : int;
}

let create ~sites =
  if sites <= 0 then invalid_arg "Wal.create: sites must be positive";
  { logs = Array.make sites []; counts = Array.make sites 0; total = 0 }

let sites t = Array.length t.logs

let check t site name =
  if site < 0 || site >= Array.length t.logs then
    invalid_arg (name ^ ": site out of range")

let append t ~site ~at record =
  check t site "Wal.append";
  t.logs.(site) <- { at; record } :: t.logs.(site);
  t.counts.(site) <- t.counts.(site) + 1;
  t.total <- t.total + 1

let appends t = t.total

let site_appends t site =
  check t site "Wal.site_appends";
  t.counts.(site)

let records t ~site =
  check t site "Wal.records";
  List.rev t.logs.(site)

type replay = {
  live_grants : int;
  in_doubt : (int * int * action list) list;
  decided : (int * int * bool) list;
  promised : ((int * int) * int) list;
  accepted : ((int * int * int) * (int * bool)) list;
  acc_meta : ((int * int) * (int * int list)) list;
}

let replay t ~site =
  check t site "Wal.replay";
  let log = List.rev t.logs.(site) in
  let live = ref 0 in
  (* participant bookkeeping keyed by (txn, round) *)
  let votes : (int * int, unit) Hashtbl.t = Hashtbl.create 16 in
  let prewrites : (int * int, action list) Hashtbl.t = Hashtbl.create 16 in
  let decisions : (int * int, bool) Hashtbl.t = Hashtbl.create 16 in
  let applied = ref [] in
  let decided = ref [] in
  let vote_order = ref [] in
  (* Paxos acceptor state: highest promise per (txn, round), highest-ballot
     accept per (txn, round, instance) *)
  let promises : (int * int, int) Hashtbl.t = Hashtbl.create 16 in
  let promise_order = ref [] in
  let accepts : (int * int * int, int * bool) Hashtbl.t = Hashtbl.create 16 in
  let accept_order = ref [] in
  let metas : (int * int, int * int list) Hashtbl.t = Hashtbl.create 16 in
  let meta_order = ref [] in
  List.iter
    (fun { record; _ } ->
      match record with
      | Admit _ -> ()
      | Grant _ -> incr live
      | Revoke _ | Release _ -> if !live > 0 then decr live
      | Prewrite { txn; round; action } ->
          let key = (txn, round) in
          let prev =
            match Hashtbl.find_opt prewrites key with Some l -> l | None -> []
          in
          Hashtbl.replace prewrites key (action :: prev)
      | Vote { txn; round; _ } ->
          let key = (txn, round) in
          if not (Hashtbl.mem votes key) then vote_order := key :: !vote_order;
          Hashtbl.replace votes key ()
      | Decision { txn; round; commit } ->
          Hashtbl.replace decisions (txn, round) commit;
          decided := (txn, round, commit) :: !decided
      | Applied { txn; _ } -> applied := txn :: !applied
      | Acceptor_promise { txn; round; ballot } ->
          let key = (txn, round) in
          let prev = Option.value ~default:(-1) (Hashtbl.find_opt promises key) in
          if not (Hashtbl.mem promises key) then
            promise_order := key :: !promise_order;
          Hashtbl.replace promises key (max prev ballot)
      | Acceptor_accept { txn; round; instance; ballot; prepared; home; psites }
        ->
          let key = (txn, round, instance) in
          if not (Hashtbl.mem metas (txn, round)) then begin
            meta_order := (txn, round) :: !meta_order;
            Hashtbl.replace metas (txn, round) (home, psites)
          end;
          (match Hashtbl.find_opt accepts key with
          | Some (b, _) when b > ballot -> ()
          | Some _ -> Hashtbl.replace accepts key (ballot, prepared)
          | None ->
              accept_order := key :: !accept_order;
              Hashtbl.replace accepts key (ballot, prepared)))
    log;
  let in_doubt =
    List.rev !vote_order
    |> List.filter_map (fun (txn, round) ->
           if Hashtbl.mem decisions (txn, round) then None
           else if List.mem txn !applied then None
           else
             let actions =
               match Hashtbl.find_opt prewrites (txn, round) with
               | Some l -> List.rev l
               | None -> []
             in
             Some (txn, round, actions))
  in
  {
    live_grants = !live;
    in_doubt;
    decided = List.rev !decided;
    promised =
      List.rev !promise_order
      |> List.map (fun key -> (key, Hashtbl.find promises key));
    accepted =
      List.rev !accept_order
      |> List.map (fun key -> (key, Hashtbl.find accepts key));
    acc_meta =
      List.rev !meta_order
      |> List.map (fun key -> (key, Hashtbl.find metas key));
  }

let pp_kind ppf k =
  Format.pp_print_string ppf
    (match k with Ccdb_model.Op.Read -> "R" | Ccdb_model.Op.Write -> "W")

let pp_record ppf = function
  | Admit { txn; item; op; ts } ->
      Format.fprintf ppf "admit t%d %a x%d ts=%d" txn pp_kind op item ts
  | Grant { txn; item; op; ts } ->
      Format.fprintf ppf "grant t%d %a x%d%s" txn pp_kind op item
        (match ts with Some ts -> Printf.sprintf " ts=%d" ts | None -> "")
  | Revoke { txn; item } -> Format.fprintf ppf "revoke t%d x%d" txn item
  | Release { txn; item; op; aborted } ->
      Format.fprintf ppf "release t%d %a x%d%s" txn pp_kind op item
        (if aborted then " aborted" else "")
  | Prewrite { txn; round; action } ->
      Format.fprintf ppf "prewrite t%d/%d %a x%d" txn round pp_kind action.op
        action.item
  | Vote { txn; round; coordinator } ->
      Format.fprintf ppf "vote t%d/%d coord=%d" txn round coordinator
  | Decision { txn; round; commit } ->
      Format.fprintf ppf "decision t%d/%d %s" txn round
        (if commit then "commit" else "abort")
  | Applied { txn; round } -> Format.fprintf ppf "applied t%d/%d" txn round
  | Acceptor_promise { txn; round; ballot } ->
      Format.fprintf ppf "acc-promise t%d/%d b%d" txn round ballot
  | Acceptor_accept { txn; round; instance; ballot; prepared; home; psites } ->
      Format.fprintf ppf "acc-accept t%d/%d i%d b%d %s home=%d [%s]" txn round
        instance ballot
        (if prepared then "prepared" else "aborted")
        home
        (String.concat "," (List.map string_of_int psites))
