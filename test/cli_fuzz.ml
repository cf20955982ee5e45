(* Random command lines against ccdb_cli: every argv must run (exit 0 or
   1) or be refused as a usage error (exit 124) within 10 s.  Exit 125
   (an uncaught exception), any other status, a signal or a timeout is a
   failure and prints the argv as a one-line repro.

     cli_fuzz.exe PATH/TO/ccdb_cli.exe [COUNT [SEED]]

   Each argv picks a subcommand (run, experiments, stl, the removed sweep
   and insights or an unknown word) and up to four of the flags that
   subcommand's --help lists, plus unknown ones, so a new flag is fuzzed
   without a change here; one argv in eight is a run of one or two
   --phase settings and a mode only.  Values come from a pool of hostile
   ones and of small valid ones per flag; a --phase draws each setting's
   value the same way.  Every valid run stays tiny: --txns at most 10
   (each --phase too), loss at most 0.2 in a --plan, experiments only
   with --quick --only E4 or E99, and --jobs only in -1..2.  The argvs run
   in a fresh temporary directory, so relative output paths land there.
   The default is 300 argvs at seed 2026, about 2 s. *)

(* The long (or only) name of each option in [cmd --help=plain], and
   whether it takes a value: [`Flag], [`Value] or [`Optional].  Option
   lines are indented by seven spaces, e.g. "-j N, --jobs=N (absent=2)",
   "--insights[=FILE] (default=)" or "-k VAL (absent=3.)"; their
   descriptions by more.  [[]] for a command without --help. *)
let options cli cmd =
  let ic = Unix.open_process_args_in cli [| cli; cmd; "--help=plain" |] in
  let text = In_channel.input_all ic in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 ->
    List.filter_map
      (fun line ->
        if String.length line < 9 || String.sub line 0 8 <> "       -" then
          None
        else
          let spec = String.trim line in
          let spec =
            match String.index_opt spec '(' with
            | Some i -> String.trim (String.sub spec 0 i)
            | None -> spec
          in
          let spec =
            match String.rindex_opt spec ' ' with
            | Some i when spec.[i - 1] = ',' ->
              String.sub spec (i + 1) (String.length spec - i - 1)
            | _ -> spec
          in
          let cut c =
            Option.value (String.index_opt spec c) ~default:(String.length spec)
          in
          let stop = min (cut '=') (min (cut '[') (cut ' ')) in
          let name = String.sub spec 0 stop in
          let kind =
            if stop = String.length spec then `Flag
            else if spec.[stop] = '[' then `Optional
            else `Value
          in
          if name = "--help" || name = "--version" then None
          else Some (name, kind))
      (String.split_on_char '\n' text)
  | _ -> []

let pool =
  [ "0"; "-1"; "nan"; "inf"; "1e308"; ""; "x"; "/nonexistent/x";
    "4611686018427387903"; "99999999999999999999"; "1"; "2"; "0.5" ]

(* Small valid values per flag; [bounded] flags draw only from them, so
   no run grows past the bounds above.  The other flags draw from these
   four times in five, and from the pool otherwise. *)
let valid = function
  | "--mode" ->
    [ "unified"; "pure-2pl"; "pure-to"; "pure-pa"; "pure-mvto"; "pure-cto";
      "unified-2pl"; "unified-to"; "full-lock"; "unified-full-lock";
      "dynamic"; "pure-2pl,dynamic" ]
  | "--plan" ->
    [ "drop=0.1,seed=3"; "drop=0.2,dup=0.1,delay=0.1x5,seed=5";
      "crash=1@100+100,seed=2"; "crash=coordinator@50+100,wipe=true,seed=1";
      "wipe=true"; "link=0>1/drop=0.2,wipe=true" ]
  | "--commit" -> [ "2pc"; "paxos"; "paxos:2"; "paxos:4611686018427387903" ]
  | "--detection" ->
    [ "centralized:100"; "edge-chasing:60"; "centralized:1e308" ]
  | "--prevention" -> [ "none"; "wait-die"; "wound-wait" ]
  | "--mix" -> [ "2PL"; "T/O,PA"; "2pl,to,pa" ]
  | "--adaptive" ->
    [ "cumulative"; "configured"; "measured:400"; "measured:0" ]
  | "--insights" | "--json" | "--csv" -> [ "out.txt"; "." ]
  | "--txns" -> [ "-1"; "0"; "1"; "3"; "10"; "10" ]
  | "--jobs" -> [ "-1"; "0"; "1"; "2" ]
  | "--only" -> [ "E4"; "E99"; "E4,E99" ]
  | _ -> [ "1"; "2"; "3"; "12"; "0.1"; "0.5" ]

let bounded = function
  | "--txns" | "--jobs" | "--plan" | "--only" -> true
  | _ -> false

(* A --phase: txns=N, mostly a small count, else a bad one or none, then
   up to three other settings, each drawn like a flag's value, and now
   and then a malformed or unknown one. *)
let phase_settings =
  [ ("lambda", [ "0.1"; "0.3" ]); ("read-fraction", [ "0"; "0.5"; "1" ]);
    ("size", [ "1-1"; "1-3"; "2-12"; "1-30"; "3-1"; "0-2" ]);
    ("zipf", [ "0.5"; "1.0"; "8"; "20"; "1e308" ]) ]

let phase =
  let open QCheck.Gen in
  let setting (k, vs) =
    map (fun v -> k ^ "=" ^ v) (frequency [ (3, oneofl vs); (1, oneofl pool) ])
  in
  let* txns =
    frequency
      [ (4, map (fun n -> [ "txns=" ^ n ]) (oneofl [ "1"; "3"; "10" ]));
        (1, oneofl [ [ "txns=0" ]; [ "txns=-1" ]; [ "txns=x" ]; [] ]) ]
  in
  let* k = int_bound 3 in
  let* chosen =
    map (List.filteri (fun i _ -> i < k)) (shuffle_l phase_settings)
  in
  let* others = flatten_l (List.map setting chosen) in
  let* junk =
    frequency [ (6, return []); (1, oneofl [ [ "bogus=1" ]; [ "txns" ] ]) ]
  in
  return (String.concat "," (txns @ others @ junk))

let unknown_flags = [ ("--bogus", `Value); ("--no-such-flag", `Flag) ]

(* A run of one or two phases under a drawn mode and no other flag: the
   phase settings are a small language of their own, and the only way
   into the workload's skewed access, so some argvs leave no other flag
   to refuse them first. *)
let phased_run =
  let open QCheck.Gen in
  let* mode = oneofl (valid "--mode") in
  let* phases = list_size (int_range 1 2) phase in
  return
    ("run" :: "--mode" :: mode
    :: List.concat_map (fun p -> [ "--phase"; p ]) phases)

let mixed ~flags_of =
  let open QCheck.Gen in
  let value name =
    if name = "--phase" then phase
    else if bounded name then oneofl (valid name)
    else frequency [ (4, oneofl (valid name)); (1, oneofl pool) ]
  in
  let arg (name, kind) =
    match kind with
    | `Flag -> return [ name ]
    | `Optional ->
      oneof
        [ return [ name ]; map (fun v -> [ name ^ "=" ^ v ]) (value name) ]
    | `Value ->
      oneof
        [ map (fun v -> [ name ^ "=" ^ v ]) (value name);
          map (fun v -> [ name; v ]) (value name) ]
  in
  let* cmd =
    frequency
      (List.map
         (fun (w, c) -> (w, return c))
         [ (3, "run"); (1, "experiments"); (1, "sweep"); (1, "stl");
           (1, "insights"); (1, "frobnicate") ])
  in
  let drawable =
    List.filter
      (fun (n, _) -> not (List.mem n [ "--txns"; "--quick"; "--only" ]))
      (flags_of cmd)
  in
  let* k = int_bound 4 in
  let* chosen =
    map (List.filteri (fun i _ -> i < k)) (shuffle_l drawable)
  in
  let* unknown =
    frequency
      [ (7, return []); (1, map (fun f -> [ f ]) (oneofl unknown_flags)) ]
  in
  let* args = flatten_l (List.map arg (chosen @ unknown)) in
  let args = List.concat args in
  let phased =
    List.exists (fun a -> String.starts_with ~prefix:"--phase" a) args
  in
  let txns = map (fun v -> [ "--txns=" ^ v ]) (value "--txns") in
  let* extra =
    match cmd with
    | "experiments" ->
      map (fun ids -> [ "--quick"; "--only"; ids ]) (value "--only")
    | "stl" -> return []
    | _ when phased -> frequency [ (4, return []); (1, txns) ]
    | _ -> txns
  in
  return (cmd :: (args @ extra))

let gen ~flags_of =
  QCheck.Gen.frequency [ (7, mixed ~flags_of); (1, phased_run) ]

(* Runs one argv with stdout discarded and stderr kept in [err]: [Ok c]
   on exit [c] = 0, 1 or 124, [Error what] otherwise. *)
let exec cli argv ~err =
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let errfd =
    Unix.openfile err [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let pid =
    Unix.create_process cli (Array.of_list (cli :: argv)) null null errfd
  in
  Unix.close null;
  Unix.close errfd;
  let deadline = Unix.gettimeofday () +. 10. in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when Unix.gettimeofday () > deadline ->
      Unix.kill pid Sys.sigkill;
      ignore (Unix.waitpid [] pid);
      Error "timeout after 10 s"
    | 0, _ ->
      Unix.sleepf 0.005;
      wait ()
    | _, Unix.WEXITED ((0 | 1 | 124) as c) -> Ok c
    | _, Unix.WEXITED c -> Error (Printf.sprintf "exit %d" c)
    | _, (Unix.WSIGNALED s | Unix.WSTOPPED s) ->
      Error (Printf.sprintf "signal %d" s)
  in
  wait ()

(* The start of a failed run's stderr, on one line. *)
let stderr_head path =
  let text = In_channel.with_open_text path In_channel.input_all in
  let flat = String.map (function '\n' -> ' ' | c -> c) text in
  let words = List.filter (( <> ) "") (String.split_on_char ' ' flat) in
  let line = String.concat " " words in
  if String.length line <= 160 then line else String.sub line 0 160

let () =
  let cli, count, seed =
    match Array.to_list Sys.argv with
    | [ _; cli ] -> (cli, 300, 2026)
    | [ _; cli; n ] -> (cli, int_of_string n, 2026)
    | [ _; cli; n; s ] -> (cli, int_of_string n, int_of_string s)
    | _ ->
      prerr_endline "usage: cli_fuzz.exe CCDB_CLI [COUNT [SEED]]";
      exit 2
  in
  let cli =
    if Filename.is_relative cli then Filename.concat (Sys.getcwd ()) cli
    else cli
  in
  let help =
    List.map
      (fun c -> (c, options cli c))
      [ "run"; "experiments"; "sweep"; "stl"; "insights"; "frobnicate" ]
  in
  (* a command without --help, removed or unknown, gets run's flags *)
  let flags_of c =
    match List.assoc c help with [] -> List.assoc "run" help | flags -> flags
  in
  let argvs =
    QCheck.Gen.generate ~rand:(Random.State.make [| seed |]) ~n:count
      (gen ~flags_of)
  in
  let dir = Filename.temp_dir "cli-fuzz" "" in
  Sys.chdir dir;
  let err = Filename.concat dir "stderr" in
  let tally = Array.make 3 0 and failures = ref 0 in
  List.iter
    (fun argv ->
      match exec cli argv ~err with
      | Ok c ->
        let i = match c with 0 -> 0 | 1 -> 1 | _ -> 2 in
        tally.(i) <- tally.(i) + 1
      | Error what ->
        incr failures;
        Printf.printf "cli-fuzz: %s (%s): ccdb_cli %s\n%!" what
          (stderr_head err)
          (String.concat " " (List.map Filename.quote argv)))
    argvs;
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Sys.rmdir dir;
  Printf.printf
    "cli-fuzz: %d argvs (seed %d): %d exit 0, %d exit 1, %d exit 124, %d \
     failures\n"
    count seed tally.(0) tally.(1) tally.(2) !failures;
  if !failures > 0 then exit 1
