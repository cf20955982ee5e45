type link = {
  drop : float;
  duplicate : float;
  delay_prob : float;
  delay_mean : float;
}

type crash = { site : int; at : float; recover_at : float }

type role = Coordinator | Acceptor of int

type role_crash = { role : role; r_at : float; r_recover_at : float }

type t = {
  seed : int;
  default_link : link;
  links : ((int * int) * link) list; (* sorted by (src, dst) *)
  crashes : crash list;              (* sorted by crash time *)
  role_crashes : role_crash list;    (* sorted by crash time; unresolved *)
  wipe : bool;                       (* fail-stop: crashes erase volatile state *)
}

let reliable_link =
  { drop = 0.; duplicate = 0.; delay_prob = 0.; delay_mean = 0. }

let check_prob what p =
  if not (p >= 0. && p <= 1.) then
    invalid_arg (Printf.sprintf "Fault_plan: %s=%g outside [0, 1]" what p)

let check_link l =
  (* the transport retransmits until a copy gets through, so a link that
     loses every transmission would retransmit forever *)
  if not (l.drop >= 0. && l.drop < 1.) then
    invalid_arg
      (Printf.sprintf
         "Fault_plan: drop=%g outside [0, 1) (a link must deliver sometimes)"
         l.drop);
  check_prob "dup" l.duplicate;
  check_prob "delay probability" l.delay_prob;
  if l.delay_mean < 0. then
    invalid_arg
      (Printf.sprintf "Fault_plan: negative delay mean %g" l.delay_mean)

let by_site_then_time a b =
  match Int.compare a.site b.site with 0 -> Float.compare a.at b.at | c -> c

let check_crashes crashes =
  List.iter
    (fun c ->
      if c.site < 0 then invalid_arg "Fault_plan: negative crash site";
      if c.at < 0. then invalid_arg "Fault_plan: crash before time 0";
      if c.recover_at <= c.at then
        invalid_arg "Fault_plan: empty or inverted crash window")
    crashes;
  (* per-site windows must not overlap: a site is either up or down *)
  let rec go = function
    | a :: (b :: _ as rest) ->
      if a.site = b.site && b.at < a.recover_at then
        invalid_arg
          (Printf.sprintf "Fault_plan: overlapping crash windows for site %d"
             a.site);
      go rest
    | [ _ ] | [] -> ()
  in
  go (List.sort by_site_then_time crashes)

let role_compare a b =
  match (a, b) with
  | Coordinator, Coordinator -> 0
  | Coordinator, Acceptor _ -> -1
  | Acceptor _, Coordinator -> 1
  | Acceptor i, Acceptor j -> Int.compare i j

let check_role_crashes role_crashes =
  List.iter
    (fun rc ->
      (match rc.role with
      | Coordinator -> ()
      | Acceptor k ->
        if k < 0 then invalid_arg "Fault_plan: negative acceptor index");
      if rc.r_at < 0. then invalid_arg "Fault_plan: crash before time 0";
      if rc.r_recover_at <= rc.r_at then
        invalid_arg "Fault_plan: empty or inverted crash window")
    role_crashes;
  (* per-role windows must not overlap, same rule as per-site windows *)
  let rec pairs = function
    | a :: rest ->
      List.iter
        (fun b ->
          if role_compare a.role b.role = 0
             && a.r_at < b.r_recover_at && b.r_at < a.r_recover_at
          then
            invalid_arg
              "Fault_plan: overlapping crash windows for one role")
        rest;
      pairs rest
    | [] -> ()
  in
  pairs role_crashes

let make ?(seed = 0) ?(default_link = reliable_link) ?(links = [])
    ?(crashes = []) ?(role_crashes = []) ?(wipe = false) () =
  check_link default_link;
  List.iter (fun (_, l) -> check_link l) links;
  let links = List.sort (fun (a, _) (b, _) -> compare a b) links in
  let rec dup_key = function
    | (a, _) :: ((b, _) :: _ as rest) ->
      if a = b then
        invalid_arg
          (Printf.sprintf "Fault_plan: duplicate link override %d>%d" (fst a)
             (snd a));
      dup_key rest
    | [ _ ] | [] -> ()
  in
  dup_key links;
  List.iter
    (fun ((src, dst), _) ->
      if src < 0 || dst < 0 then invalid_arg "Fault_plan: negative link site")
    links;
  check_crashes crashes;
  check_role_crashes role_crashes;
  let crashes = List.sort (fun a b -> compare (a.at, a.site) (b.at, b.site)) crashes in
  let role_crashes =
    List.sort
      (fun a b ->
        match Float.compare a.r_at b.r_at with
        | 0 -> role_compare a.role b.role
        | c -> c)
      role_crashes
  in
  { seed; default_link; links; crashes; role_crashes; wipe }

let none = make ()

let seed t = t.seed
let default_link t = t.default_link
let links t = t.links
let crashes t = t.crashes
let role_crashes t = t.role_crashes
let wipe t = t.wipe

(* Pin each role crash to a concrete site and fold it into the ordinary
   crash schedule.  Which site a role lands on is known only once the
   workload is drawn, so the caller cannot keep role windows clear of the
   others: windows of one site that overlap after resolution merge into
   their union, the site staying down from the first crash to the last
   recovery.  Plans without such an overlap resolve to exactly the windows
   given. *)
let resolve t ~coordinator ~acceptor =
  match t.role_crashes with
  | [] -> t
  | rcs ->
    let resolved =
      List.map
        (fun rc ->
          let site =
            match rc.role with
            | Coordinator -> coordinator
            | Acceptor k -> acceptor k
          in
          { site; at = rc.r_at; recover_at = rc.r_recover_at })
        rcs
    in
    let merged =
      List.fold_left
        (fun acc c ->
          match acc with
          | prev :: rest when prev.site = c.site && c.at < prev.recover_at ->
            { prev with recover_at = Float.max prev.recover_at c.recover_at }
            :: rest
          | _ -> c :: acc)
        []
        (List.sort by_site_then_time (t.crashes @ resolved))
    in
    make ~seed:t.seed ~default_link:t.default_link ~links:t.links
      ~crashes:merged ~wipe:t.wipe ()

(* [link_for] and [is_crashed] run on every transmission and ack of the
   reliable transport: plain loops over the plan's short lists, comparing
   ints and floats, with no tuple or closure allocated. *)
let rec find_link ~(src : int) ~(dst : int) default = function
  | [] -> default
  | ((s, d), l) :: rest ->
    if s = src && d = dst then l else find_link ~src ~dst default rest

let link_for t ~src ~dst = find_link ~src ~dst t.default_link t.links

let rec in_window ~site ~at = function
  | [] -> false
  | c :: rest ->
    (c.site = site && at >= c.at && at < c.recover_at)
    || in_window ~site ~at rest

let is_crashed t ~site ~at = in_window ~site ~at t.crashes

let max_site t =
  let m =
    List.fold_left
      (fun acc ((src, dst), _) -> max acc (max src dst))
      (-1) t.links
  in
  List.fold_left (fun acc c -> max acc c.site) m t.crashes

(* --- textual grammar ---------------------------------------------------- *)

let float_str f =
  (* shortest round-trippable decimal *)
  let s = Printf.sprintf "%.12g" f in
  s

let link_fields l =
  let fields = ref [] in
  if l.delay_prob > 0. then
    fields :=
      Printf.sprintf "delay=%sx%s" (float_str l.delay_prob)
        (float_str l.delay_mean)
      :: !fields;
  if l.duplicate > 0. then
    fields := Printf.sprintf "dup=%s" (float_str l.duplicate) :: !fields;
  if l.drop > 0. then
    fields := Printf.sprintf "drop=%s" (float_str l.drop) :: !fields;
  !fields

let to_string t =
  let tokens =
    link_fields t.default_link
    @ List.map
        (fun ((src, dst), l) ->
          String.concat "/"
            (Printf.sprintf "link=%d>%d" src dst :: link_fields l))
        t.links
    @ List.map
        (fun c ->
          Printf.sprintf "crash=%d@%s+%s" c.site (float_str c.at)
            (float_str (c.recover_at -. c.at)))
        t.crashes
    @ List.map
        (fun rc ->
          let who =
            match rc.role with
            | Coordinator -> "coordinator"
            | Acceptor k -> Printf.sprintf "acceptor:%d" k
          in
          Printf.sprintf "crash=%s@%s+%s" who (float_str rc.r_at)
            (float_str (rc.r_recover_at -. rc.r_at)))
        t.role_crashes
    @ (if t.wipe then [ "wipe=true" ] else [])
    @ (if t.seed <> 0 then [ Printf.sprintf "seed=%d" t.seed ] else [])
  in
  match tokens with [] -> "none" | _ -> String.concat "," tokens

let pp ppf t = Format.pp_print_string ppf (to_string t)

let parse_float what s =
  match float_of_string_opt s with
  | Some f -> Ok f
  | None -> Error (Printf.sprintf "bad %s value %S" what s)

let parse_delay s =
  match String.split_on_char 'x' s with
  | [ p; m ] -> (
    match parse_float "delay probability" p with
    | Error _ as e -> e
    | Ok p -> (
      match parse_float "delay mean" m with
      | Error _ as e -> e
      | Ok m -> Ok (p, m)))
  | _ -> Error (Printf.sprintf "bad delay spec %S (expected PROBxMEAN)" s)

(* one [field=value] applied to a link under construction *)
let apply_link_field l field =
  match String.index_opt field '=' with
  | None -> Error (Printf.sprintf "bad link field %S" field)
  | Some i -> (
    let key = String.sub field 0 i in
    let v = String.sub field (i + 1) (String.length field - i - 1) in
    match key with
    | "drop" -> Result.map (fun f -> { l with drop = f }) (parse_float key v)
    | "dup" ->
      Result.map (fun f -> { l with duplicate = f }) (parse_float key v)
    | "delay" ->
      Result.map
        (fun (p, m) -> { l with delay_prob = p; delay_mean = m })
        (parse_delay v)
    | _ -> Error (Printf.sprintf "unknown link field %S" key))

(* the crash target: a concrete site, or a role resolved by the harness *)
type parsed_crash = Site_crash of crash | Role_crash of role_crash

let parse_crash_who s =
  match int_of_string_opt s with
  | Some site -> Ok (`Site site)
  | None ->
    if s = "coordinator" then Ok (`Role Coordinator)
    else (
      match String.index_opt s ':' with
      | Some i when String.sub s 0 i = "acceptor" ->
        let k = String.sub s (i + 1) (String.length s - i - 1) in
        (match int_of_string_opt k with
        | Some k -> Ok (`Role (Acceptor k))
        | None -> Error (Printf.sprintf "bad acceptor index %S" k))
      | _ ->
        Error
          (Printf.sprintf
             "bad crash target %S (expected a site number, \
              \"coordinator\", or \"acceptor:K\")"
             s))

let parse_crash s =
  (* WHO@T+D where WHO is a site number, "coordinator", or "acceptor:K" *)
  match String.index_opt s '@' with
  | None -> Error (Printf.sprintf "bad crash spec %S (expected WHO@AT+DUR)" s)
  | Some i -> (
    let who = String.sub s 0 i in
    let rest = String.sub s (i + 1) (String.length s - i - 1) in
    match String.index_opt rest '+' with
    | None ->
      Error (Printf.sprintf "bad crash spec %S (expected WHO@AT+DUR)" s)
    | Some j -> (
      let at = String.sub rest 0 j in
      let dur = String.sub rest (j + 1) (String.length rest - j - 1) in
      match parse_crash_who who with
      | Error _ as e -> e
      | Ok who -> (
        match parse_float "crash time" at with
        | Error _ as e -> e
        | Ok at -> (
          match parse_float "crash duration" dur with
          | Error _ as e -> e
          | Ok dur -> (
            match who with
            | `Site site -> Ok (Site_crash { site; at; recover_at = at +. dur })
            | `Role role ->
              Ok (Role_crash { role; r_at = at; r_recover_at = at +. dur }))))))

let parse_link_token s =
  (* SRC>DST[/field=value]... *)
  match String.split_on_char '/' s with
  | [] -> Error "empty link token"
  | endpoints :: fields -> (
    match String.index_opt endpoints '>' with
    | None ->
      Error (Printf.sprintf "bad link endpoints %S (expected SRC>DST)" endpoints)
    | Some i -> (
      let src = String.sub endpoints 0 i in
      let dst =
        String.sub endpoints (i + 1) (String.length endpoints - i - 1)
      in
      match (int_of_string_opt src, int_of_string_opt dst) with
      | Some src, Some dst ->
        let rec go l = function
          | [] -> Ok ((src, dst), l)
          | f :: rest -> (
            match apply_link_field l f with
            | Error _ as e -> e
            | Ok l -> go l rest)
        in
        go reliable_link fields
      | _ -> Error (Printf.sprintf "bad link endpoints %S" endpoints)))

(* Splits on ',' and records the character offset (0-based, in the original
   string) of each token's first non-blank character, so parse errors can
   point at the offending token. *)
let tokenize s =
  let n = String.length s in
  let raw = ref [] in
  let start = ref 0 in
  for i = 0 to n do
    if i = n || s.[i] = ',' then begin
      raw := (String.sub s !start (i - !start), !start) :: !raw;
      start := i + 1
    end
  done;
  let is_blank c = c = ' ' || c = '\t' || c = '\n' || c = '\r' in
  List.rev !raw
  |> List.filter_map (fun (tok, off) ->
         let len = String.length tok in
         let b = ref 0 in
         while !b < len && is_blank tok.[!b] do incr b done;
         let e = ref len in
         while !e > !b && is_blank tok.[!e - 1] do decr e done;
         if !e = !b then None else Some (String.sub tok !b (!e - !b), off + !b))

let of_string s =
  let fail tok pos msg =
    Error
      (Printf.sprintf "fault plan: %s in token %S at position %d" msg tok pos)
  in
  let located tok pos = function
    | Ok _ as ok -> ok
    | Error msg -> fail tok pos msg
  in
  let rec go acc_link links crashes roles seed wipe = function
    | [] -> (
      try
        Ok
          (make ~seed ~default_link:acc_link ~links ~crashes
             ~role_crashes:roles ~wipe ())
      with Invalid_argument msg -> Error msg)
    | ("none", _) :: rest -> go acc_link links crashes roles seed wipe rest
    | (tok, pos) :: rest -> (
      match String.index_opt tok '=' with
      | None -> fail tok pos "expected key=value"
      | Some i -> (
        let key = String.sub tok 0 i in
        let v = String.sub tok (i + 1) (String.length tok - i - 1) in
        match key with
        | "drop" | "dup" | "delay" -> (
          match located tok pos (apply_link_field acc_link tok) with
          | Error _ as e -> e
          | Ok l -> go l links crashes roles seed wipe rest)
        | "crash" -> (
          match located tok pos (parse_crash v) with
          | Error _ as e -> e
          | Ok (Site_crash c) ->
            go acc_link links (c :: crashes) roles seed wipe rest
          | Ok (Role_crash rc) ->
            go acc_link links crashes (rc :: roles) seed wipe rest)
        | "link" -> (
          match located tok pos (parse_link_token v) with
          | Error _ as e -> e
          | Ok l -> go acc_link (l :: links) crashes roles seed wipe rest)
        | "seed" -> (
          match int_of_string_opt v with
          | Some seed -> go acc_link links crashes roles seed wipe rest
          | None -> fail tok pos (Printf.sprintf "bad seed %S" v))
        | "wipe" -> (
          match bool_of_string_opt v with
          | Some wipe -> go acc_link links crashes roles seed wipe rest
          | None ->
            fail tok pos (Printf.sprintf "bad wipe %S (expected true/false)" v))
        | _ -> fail tok pos (Printf.sprintf "unknown key %S" key)))
  in
  go reliable_link [] [] [] 0 false (tokenize s)
