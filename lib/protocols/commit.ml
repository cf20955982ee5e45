(* Atomic-commitment dispatcher.

   Systems talk to [Commit]; the runtime's [commit_protocol] selects the
   engine behind it — presumed-abort 2PC ([Two_pc]) or Paxos Commit
   ([Consensus]).  The config and hooks records are [Two_pc]'s, re-exported
   so existing `{ Commit.apply = ...; commit_point = ... }` call sites are
   untouched by the dispatch layer. *)

type config = Two_pc.config = {
  inquiry_timeout : float;
  client_retry : float;
}

let default_config = Two_pc.default_config

type hooks = Two_pc.hooks = {
  apply : txn:int -> site:int -> Ccdb_storage.Wal.action list -> unit;
  commit_point : txn:int -> unit;
}

type t = Two_pc of Two_pc.t | Paxos of Consensus.t

let create ?config rt hooks =
  match Runtime.commit_protocol rt with
  | Runtime.Two_pc -> Two_pc (Two_pc.create ?config rt hooks)
  | Runtime.Paxos { f } ->
    let config =
      Option.map
        (fun (c : config) ->
          { Consensus.inquiry_timeout = c.inquiry_timeout;
            client_retry = c.client_retry })
        config
    in
    Paxos
      (Consensus.create ?config ~f rt
         { Consensus.apply = hooks.apply; commit_point = hooks.commit_point })

let participants ~site ~action copies =
  let by_site = ref [] in
  List.iter
    (fun copy ->
      let a = action copy in
      match Ccdb_util.Int_list.assoc_opt (site copy) !by_site with
      | Some r -> r := a :: !r
      | None -> by_site := (site copy, ref [ a ]) :: !by_site)
    copies;
  List.sort (fun (a, _) (b, _) -> Int.compare a b) !by_site
  |> List.map (fun (s, r) -> (s, List.rev !r))

let commit t ~txn ~home ~participants =
  match t with
  | Two_pc c -> Two_pc.commit c ~txn ~home ~participants
  | Paxos c -> Consensus.commit c ~txn ~home ~participants

let in_flight = function
  | Two_pc c -> Two_pc.in_flight c
  | Paxos c -> Consensus.in_flight c
