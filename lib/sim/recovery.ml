type stats = {
  replays : int;
  interrupted : int;
  records_replayed : int;
  replay_time : float;
}

(* simulated time charged per stable-log record a recovery replays *)
let replay_cost = 0.05

type t = {
  engine : Engine.t;
  open_until : float array; (* per-site replay-window end, -inf when closed *)
  mutable replays : int;
  mutable interrupted : int;
  mutable records_replayed : int;
  mutable replay_time : float;
}

let replaying t site = Engine.now t.engine < t.open_until.(site)

let create ~net ~engine ~records ~on_wipe ~on_replay () =
  let t =
    {
      engine;
      open_until = Array.make (Net.sites net) neg_infinity;
      replays = 0;
      interrupted = 0;
      records_replayed = 0;
      replay_time = 0.;
    }
  in
  Net.on_crash net (fun site ->
      if replaying t site then begin
        (* second failure inside the replay window: the half-done replay is
           abandoned (it was idempotent, so nothing to undo) *)
        t.interrupted <- t.interrupted + 1;
        t.open_until.(site) <- neg_infinity
      end;
      on_wipe site);
  Net.on_recover net (fun site ->
      let n = records site in
      let window = replay_cost *. float_of_int n in
      t.replays <- t.replays + 1;
      t.records_replayed <- t.records_replayed + n;
      t.replay_time <- t.replay_time +. window;
      t.open_until.(site) <- Engine.now engine +. window;
      on_replay site ~records:n);
  t

let stats t =
  {
    replays = t.replays;
    interrupted = t.interrupted;
    records_replayed = t.records_replayed;
    replay_time = t.replay_time;
  }
