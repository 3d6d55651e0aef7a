(* megacall-churn and megacall-downgrade: [Megacall.run] at call scale,
   in one process on one domain (no [Pool]).

   The configuration is steady-state churn — calls hold for a few
   seconds against a horizon several times longer — with the admission
   controller's capacity ([admit_margin]) set below the links'
   ([link_load_factor]), so measurement-based admission, not link
   overflow, is what blocks calls.  The two workloads differ only in the
   service model: [Renegotiate] (the paper's service) or [Downgrade]
   over the engine's rate levels as tiers.

   [Megacall.run] exposes no per-operation hook, so per-operation
   samples come from [replay]: the benchmark's own re-run of shard 0's
   event loop through the same public calls ([Wheel], [Store],
   [Controller]) at the same configuration and seed.  A replay whose
   decision hash differs from the engine's shard hash no longer times
   what the engine does, so it fails the run. *)

module Rng = Rcbr_util.Rng
module Wheel = Rcbr_queue.Wheel
module Topology = Rcbr_net.Topology
module Link = Rcbr_net.Link
module Store = Rcbr_net.Store
module Controller = Rcbr_admission.Controller
module Service_model = Rcbr_policy.Service_model
module Megacall = Rcbr_sim.Megacall
module Samples = Meter.Samples

let concurrent = 32768
let mean_hold = 0.5
let horizon = 8.
let admit_margin = 0.9
let link_load_factor = 1.05

let config ~seed ~downgrade =
  let base = Megacall.default ~concurrent () in
  let tiers =
    List.sort_uniq Float.compare (Array.to_list base.Megacall.levels)
    |> Array.of_list
  in
  {
    base with
    Megacall.mean_hold;
    horizon;
    admit_margin;
    link_load_factor;
    seed;
    service =
      (if downgrade then Service_model.Downgrade { tiers }
       else Service_model.Renegotiate);
  }

(* --- replay of shard 0 ------------------------------------------------ *)

type meters = {
  push : Meter.acc;
  pop : Meter.acc;
  acquire : Meter.acc;
  release : Meter.acc;
  fits : Meter.acc;
  settle : Meter.acc;
  admit : Meter.acc;
  decide : Meter.acc;
  update : Meter.acc;
  downgrade : Meter.acc;
  upgrade : Meter.acc;
}

let meters () =
  let a = Meter.acc in
  {
    push = a ();
    pop = a ();
    acquire = a ();
    release = a ();
    fits = a ();
    settle = a ();
    admit = a ();
    decide = a ();
    update = a ();
    downgrade = a ();
    upgrade = a ();
  }

type replay = {
  shard_hash : int;
  ops : Samples.t;  (** per-operation (arrival or event) latency *)
  m : meters;
  ctrl_stats : Controller.stats;
}

(* One shard of [Megacall.run], step for step.  With [traced] each layer
   call is timed on its own; otherwise only whole operations are. *)
let replay (cfg : Megacall.config) ~shard ~traced =
  let m = meters () in
  let ops = Samples.create 65_536 in
  let timed a f =
    if traced then begin
      let w0 = Meter.words () in
      let t0 = Meter.now_ns () in
      let r = f () in
      Meter.stop a t0 w0;
      r
    end
    else f ()
  in
  (* Megacall.run pre-splits one stream per shard, in shard order. *)
  let root = Rng.create cfg.seed in
  let rng = ref (Rng.split root) in
  for _ = 1 to shard do
    rng := Rng.split root
  done;
  let rng = !rng in
  let topo0 = Topology.grid ~rows:cfg.rows ~cols:cfg.cols ~capacity:1. in
  let n_routes = Topology.n_routes topo0 in
  let hops = Array.fold_left ( + ) 0 (Topology.route_lengths topo0) in
  let mean_route = float_of_int hops /. float_of_int n_routes in
  let mean_rate =
    Array.fold_left ( +. ) 0. cfg.levels /. float_of_int (Array.length cfg.levels)
  in
  let per_link =
    float_of_int cfg.calls_per_shard *. mean_rate *. mean_route
    /. float_of_int (Topology.n_links topo0)
  in
  let topo =
    Topology.grid ~rows:cfg.rows ~cols:cfg.cols
      ~capacity:(cfg.link_load_factor *. per_link)
  in
  let links = Link.of_topology topo in
  let store = Store.create ~capacity_hint:cfg.calls_per_shard () in
  let ctrl =
    Controller.memory
      ~capacity:(cfg.admit_margin *. float_of_int cfg.calls_per_shard *. mean_rate)
      ~target:cfg.target
  in
  Controller.set_batched ctrl true;
  Controller.set_service ctrl cfg.service;
  let wheel : Store.handle Wheel.t = Wheel.create () in
  let arrivals = ref 0 and admitted = ref 0 and reneg_denied = ref 0 in
  let departures = ref 0 and events_fired = ref 0 in
  let downgrades = ref 0 and upgrades = ref 0 in
  let next_id = ref 0 and replacements = ref 0 in
  let n_levels = Array.length cfg.levels in
  let routes = topo.Topology.routes in
  let tiers =
    match cfg.service with
    | Service_model.Downgrade { tiers } -> tiers
    | Service_model.Renegotiate -> [||]
    | Service_model.Mts_profile _ -> invalid_arg "replay: MTS is not benchmarked"
  in
  let downgrade = Array.length tiers > 0 in
  let push now h =
    let at = now +. Rng.exponential rng (1. /. cfg.mean_hold) in
    ignore (timed m.push (fun () -> Wheel.push wheel ~time:at h))
  in
  let upq : (Store.handle * int) Queue.t = Queue.create () in
  let rec drain_upgrades now =
    match Queue.peek_opt upq with
    | None -> ()
    | Some (h, id0) ->
        if
          (not (Store.is_live store h))
          || Store.id store h <> id0
          || Store.demanded store h <= Store.applied store h
        then begin
          ignore (Queue.pop upq);
          drain_upgrades now
        end
        else begin
          match
            timed m.upgrade (fun () -> Store.try_upgrade ~links store h ~tiers ~now)
          with
          | None -> ()
          | Some r ->
              incr upgrades;
              timed m.settle (fun () -> Store.settle ~links store h ~rate:r);
              timed m.update (fun () ->
                  Controller.on_renegotiate ctrl ~now ~call:id0 ~rate:r);
              if Store.demanded store h <= r then begin
                ignore (Queue.pop upq);
                drain_upgrades now
              end
        end
  in
  let acquire id route =
    timed m.acquire (fun () ->
        Store.acquire store ~id ~route ~transit:(Array.length route > 1))
  in
  let try_arrival now =
    incr arrivals;
    if not downgrade then begin
      if timed m.admit (fun () -> Controller.admit ctrl ~now) then begin
        incr admitted;
        let id = !next_id in
        incr next_id;
        let route = routes.(Rng.int rng n_routes) in
        let h = acquire id route in
        let lvl = Rng.int rng n_levels in
        let rate = cfg.levels.(lvl) in
        Store.set_level store h lvl;
        Store.set_cursor store h 0;
        timed m.settle (fun () -> Store.settle ~links store h ~rate);
        timed m.update (fun () -> Controller.on_admit ctrl ~now ~call:id ~rate);
        push now h
      end
    end
    else begin
      let route = routes.(Rng.int rng n_routes) in
      let lvl = Rng.int rng n_levels in
      let demanded = cfg.levels.(lvl) in
      let id = !next_id in
      let h = acquire id route in
      let fits r = Store.fits ~links store h ~rate:r ~now in
      match timed m.decide (fun () -> Controller.decide ctrl ~now ~demanded ~fits) with
      | Controller.Blocked -> timed m.release (fun () -> Store.release store h)
      | Controller.Admit { granted; downgraded; _ } ->
          incr admitted;
          incr next_id;
          Store.set_level store h lvl;
          Store.set_cursor store h 0;
          Store.set_demanded store h demanded;
          timed m.settle (fun () -> Store.settle ~links store h ~rate:granted);
          timed m.update (fun () ->
              Controller.on_admit ctrl ~now ~call:id ~rate:granted);
          if downgraded then begin
            incr downgrades;
            Queue.push (h, id) upq
          end;
          push now h
    end
  in
  let fire h now =
    incr events_fired;
    let cursor = Store.cursor store h + 1 in
    Store.set_cursor store h cursor;
    if cursor > cfg.pieces_per_call then begin
      let call = Store.id store h in
      timed m.update (fun () -> Controller.on_depart ctrl ~now ~call);
      timed m.settle (fun () -> Store.settle ~links store h ~rate:0.);
      timed m.release (fun () -> Store.release store h);
      incr departures;
      incr replacements;
      if downgrade then drain_upgrades now
    end
    else begin
      let lvl = Rng.int rng n_levels in
      let demanded = cfg.levels.(lvl) in
      let applied = Store.applied store h in
      let granted =
        if not downgrade then begin
          if
            demanded > applied
            && not (timed m.fits (fun () -> Store.fits ~links store h ~rate:demanded ~now))
          then incr reneg_denied;
          demanded
        end
        else begin
          let d =
            timed m.downgrade (fun () ->
                Store.decide_downgrade ~links store h ~tiers ~demanded ~now)
          in
          if Service_model.downgraded d then begin
            incr downgrades;
            (match d with
            | Service_model.Settle_floor _ -> incr reneg_denied
            | _ -> ());
            Queue.push (h, Store.id store h) upq
          end;
          Service_model.granted_rate d ~demanded
        end
      in
      Store.set_level store h lvl;
      timed m.settle (fun () -> Store.settle ~links store h ~rate:granted);
      let call = Store.id store h in
      timed m.update (fun () ->
          Controller.on_renegotiate ctrl ~now ~call ~rate:granted);
      push now h
    end
  in
  let quota = (cfg.calls_per_shard + cfg.ramp_ticks - 1) / cfg.ramp_ticks in
  let n_ticks =
    cfg.ramp_ticks + int_of_float (Float.ceil (cfg.horizon /. cfg.tick))
  in
  for k = 1 to n_ticks do
    let now = float_of_int k *. cfg.tick in
    let continue_ = ref true in
    while !continue_ do
      let t0 = Meter.now_ns () in
      match
        timed m.pop (fun () ->
            match Wheel.peek wheel with
            | Some (at, _) when at <= now -> Wheel.pop wheel
            | _ -> None)
      with
      | Some (at, h) ->
          fire h at;
          Samples.add ops (Meter.now_ns () - t0)
      | None -> continue_ := false
    done;
    let ramp =
      if k <= cfg.ramp_ticks then
        min quota (cfg.calls_per_shard - (quota * (k - 1)))
      else 0
    in
    let batch = max 0 ramp + !replacements in
    replacements := 0;
    for _ = 1 to batch do
      let t0 = Meter.now_ns () in
      try_arrival now;
      Samples.add ops (Meter.now_ns () - t0)
    done
  done;
  let stats = Controller.stats ctrl in
  let demand_hash =
    Array.fold_left (fun h l -> Round.fnv_float h l.Link.demand) 0 links
  in
  let folded =
    [
      stats.Controller.decision_hash;
      !arrivals;
      !admitted;
      !reneg_denied;
      !departures;
      !events_fired;
      Store.live_count store;
    ]
    @ if downgrade then [ !downgrades; !upgrades ] else []
  in
  {
    shard_hash = List.fold_left Round.fnv demand_hash folded;
    ops;
    m;
    ctrl_stats = stats;
  }

(* --- one round ---------------------------------------------------------- *)

let run ~seed ~downgrade ~traced =
  let cfg = config ~seed ~downgrade in
  let grid = Topology.grid ~rows:cfg.rows ~cols:cfg.cols ~capacity:1. in
  let t_setup = Meter.now_ns () in
  let ramp = Megacall.run { cfg with Megacall.horizon = 0. } in
  let setup_s = float_of_int (Meter.now_ns () - t_setup) *. 1e-9 in
  Gc.compact ();
  let (r, busy_ns, alloc_words), gc =
    Round.with_gc (fun () ->
        let w0 = Meter.words () in
        let t0 = Meter.now_ns () in
        let r = Megacall.run cfg in
        let t1 = Meter.now_ns () in
        (r, t1 - t0, Meter.words () -. w0))
  in
  let peak_rss_mb = Meter.peak_rss_mb () in
  (* The tracing overhead compares the traced replay with an untraced
     one run just before it, so both see the same host. *)
  let base_op_ns =
    if traced then
      let plain = replay cfg ~shard:0 ~traced:false in
      float_of_int (Samples.total plain.ops) /. float_of_int (Samples.count plain.ops)
    else 0.
  in
  let rp = replay cfg ~shard:0 ~traced in
  let s0 = r.Megacall.shards_.(0) in
  let replay_matched = rp.shard_hash = s0.Megacall.shard_hash in
  let ops = r.Megacall.total_arrivals + r.Megacall.total_events in
  let per n d = if d = 0 then 0. else float_of_int n /. float_of_int d in
  let op_ns = per (Samples.total rp.ops) (Samples.count rp.ops) in
  (* The paper's figure: renegotiation increases denied / attempted.
     Under Downgrade the engine denies no increase — it grants a lower
     tier — so the figure is the engine's rate requests granted below
     demand over those that asked for new bandwidth: admitted arrivals
     plus increases. *)
  let reneg_attempts, reneg_denied =
    if downgrade then (r.total_admitted + r.total_reneg_attempts, r.total_downgrades)
    else (r.total_reneg_attempts, r.total_reneg_denied)
  in
  let layers =
    if not traced then []
    else
      let solver = rp.ctrl_stats.Controller.solver in
      let m = rp.m in
      [
        ("sim.events_per_call", per r.total_events r.total_admitted);
        ("admission.batch_hit_frac", per r.total_batch_hits r.total_arrivals);
        ("policy.downgrades_per_kcall", 1000. *. per r.total_downgrades r.total_admitted);
        ("policy.upgrades_per_kcall", 1000. *. per r.total_upgrades r.total_admitted);
        ("queue.wheel_push_ns", Meter.mean_ns m.push);
        ("queue.wheel_pop_ns", Meter.mean_ns m.pop);
        ("net.store_acquire_ns", Meter.mean_ns m.acquire);
        ("net.store_release_ns", Meter.mean_ns m.release);
        ("net.store_fits_ns", Meter.mean_ns m.fits);
        ("net.store_settle_ns", Meter.mean_ns m.settle);
        ("admission.admit_ns", Meter.mean_ns m.admit);
        ("admission.admit_words", Meter.mean_words m.admit);
        ("admission.decide_ns", Meter.mean_ns m.decide);
        ("admission.update_ns", Meter.mean_ns m.update);
        ("net.store_decide_downgrade_ns", Meter.mean_ns m.downgrade);
        ("net.store_try_upgrade_ns", Meter.mean_ns m.upgrade);
        ("effbw.mgf_evals", float_of_int solver.Rcbr_effbw.Chernoff.Solver.mgf_evals);
        ("effbw.queries", float_of_int solver.Rcbr_effbw.Chernoff.Solver.queries);
        ( "effbw.memo_hit_frac",
          per solver.Rcbr_effbw.Chernoff.Solver.memo_hits
            rp.ctrl_stats.Controller.decisions );
        ("sim.replay_hash_match", if replay_matched then 1. else 0.);
        ("trace.overhead_frac", (op_ns /. base_op_ns) -. 1.);
      ]
  in
  {
    Round.setup_s;
    ops;
    busy_ns;
    alloc_words;
    peak_rss_mb;
    latency = rp.ops;
    failed =
      r.Megacall.audit_violations + ramp.Megacall.audit_violations
      + (if replay_matched then 0 else 1);
    reneg_attempts;
    reneg_denied;
    call_attempts = r.total_arrivals;
    call_denied = r.total_denied;
    fingerprint =
      [
        ("outcome_hash", r.outcome_hash);
        ("decision_hash", s0.Megacall.decision_hash);
        ("arrivals", r.total_arrivals);
        ("events", r.total_events);
      ];
    gc;
    shape =
      [
        ("arrivals", float_of_int r.total_arrivals);
        ("events", float_of_int r.total_events);
        ("arrival_denied_share", per r.total_denied r.total_arrivals);
        ("reneg_increase_share", per r.total_reneg_attempts r.total_events);
        ("reneg_fail_share", per reneg_denied reneg_attempts);
        ("live_calls_final", float_of_int r.concurrent_calls);
        ("live_calls_peak", float_of_int r.peak_concurrent);
        ("batch_hit_share", per r.total_batch_hits r.total_arrivals);
        ("downgrades", float_of_int r.total_downgrades);
        ("upgrades", float_of_int r.total_upgrades);
        ("links", float_of_int (cfg.shards * Topology.n_links grid));
        ( "route_len_mean",
          float_of_int (Array.fold_left ( + ) 0 (Topology.route_lengths grid))
          /. float_of_int (Topology.n_routes grid) );
        ("shards", float_of_int cfg.shards);
      ];
    layers;
  }
