(* switch-reneg: RCBR signalling in the paper's own regime, through the
   switch daemon's protocol core ({!Rcbr_wire.Switchd}) in process.

   One client holds one long-lived connection and runs a closed loop:
   each request is framed, passed to [Switchd.input], and its reply
   checked before the next request is made.

   The calls follow the paper's call-level admission experiment
   (Section VI), as {!Rcbr_sim.Mbac.run} models it: calls arrive as a
   Poisson process, each plays a randomly phased copy of a trellis
   schedule ([Optimal.solve] on a [Synthetic.star_wars] trace) for one
   schedule duration — the whole movie — and departs; a blocked call is
   lost.  The arrival rate is [calls_ref] over the movie length, an
   offered load of [calls_ref] Erlangs.

   Each rate change travels the way {!Rcbr_wire.Loadgen.storm} sends
   them to this daemon: with probability [rm_fraction] (the default of
   [rcbr_loadgen --rm-fraction]) as a fire-and-forget RM [Delta] cell,
   every third change of a call followed by an absolute [Resync], and
   otherwise as an acked [Renegotiate], which the switch checks against
   the route's links and reports to its admission controller.  Requests
   are made on the fly from the client's calendar of call events, so
   nothing is prebuilt.

   The movies are a fixed library — trace [i] is synthesized from seed
   [i] — so the traffic shape does not depend on the workload seed; the
   seed draws when calls arrive, which movie each plays, from where, on
   which route and how each change is signalled.  The switch gates
   setups with a [Controller.memory] admission controller, on a grid
   large enough that the per-link cost of each accepted request shows. *)

module Rng = Rcbr_util.Rng
module Synthetic = Rcbr_traffic.Synthetic
module Optimal = Rcbr_core.Optimal
module Schedule = Rcbr_core.Schedule
module Topology = Rcbr_net.Topology
module Link = Rcbr_net.Link
module Session = Rcbr_net.Session
module Controller = Rcbr_admission.Controller
module Codec = Rcbr_wire.Codec
module Frame = Rcbr_wire.Frame
module Switchd = Rcbr_wire.Switchd
module Wheel = Rcbr_queue.Wheel
module Samples = Meter.Samples

(* Fixed knobs.  [cost_ratio] puts the library's mean renegotiation
   interval in the paper's 7-12 s.  [admit_margin] sets the admission
   controller's capacity, and [link_load_factor] the links', as
   multiples of the mean demand of [calls_ref] calls, so setups are
   blocked at a steady rate and a few percent of increases find no room
   on their route. *)
let rows = 12
let cols = 12
let calls_ref = 2000
let n_traces = 2
let frames = 1440 (* a 60 s movie at 24 fps *)
let cost_ratio = 3e5
let rm_fraction = 0.5
let resync_every = 3
let requests = 150_000
let link_load_factor = 1.3
let admit_margin = 1.6
let target = 1e-6

(* Call slots: far above the Poisson([calls_ref]) number of live calls. *)
let slots = 2 * calls_ref

type sched = { fps : float; n_slots : int; starts : int array; rates : float array }

type setup = {
  scheds : sched array;
  movie_s : float;  (** schedule duration: every call's holding time, s *)
  topo : Topology.t;
  ctrl_capacity : float;
  synth_s : float;
  solve_s : float;
  expanded : int;
  max_frontier : int;
  sched_interval : float;  (** mean renegotiation interval of the schedules, s *)
}

let seconds_since t0 = float_of_int (Meter.now_ns () - t0) *. 1e-9

let make_setup () =
  let synth_s = ref 0. and solve_s = ref 0. in
  let expanded = ref 0 and max_frontier = ref 0 and interval = ref 0. in
  let movie_s = ref 0. in
  let scheds =
    Array.init n_traces (fun i ->
        let seed = i + 1 in
        let t0 = Meter.now_ns () in
        let trace = Synthetic.star_wars ~frames ~seed () in
        synth_s := !synth_s +. seconds_since t0;
        let t0 = Meter.now_ns () in
        let s, st =
          Optimal.solve_with_stats (Optimal.default_params ~cost_ratio trace) trace
        in
        solve_s := !solve_s +. seconds_since t0;
        expanded := !expanded + st.Optimal.expanded;
        max_frontier := max !max_frontier st.Optimal.max_frontier;
        interval := !interval +. Schedule.mean_renegotiation_interval s;
        movie_s := Schedule.duration s;
        let segs = Schedule.segments s in
        {
          fps = Schedule.fps s;
          n_slots = Schedule.n_slots s;
          starts = Array.map (fun g -> g.Schedule.start_slot) segs;
          rates = Array.map (fun g -> g.Schedule.rate) segs;
        })
  in
  let mean_rate =
    Array.fold_left
      (fun acc s ->
        let sum = ref 0. in
        Array.iteri
          (fun k r ->
            let next = if k + 1 < Array.length s.starts then s.starts.(k + 1) else s.n_slots in
            sum := !sum +. (r *. float_of_int (next - s.starts.(k))))
          s.rates;
        acc +. (!sum /. float_of_int s.n_slots))
      0. scheds
    /. float_of_int n_traces
  in
  let unit_topo = Topology.grid ~rows ~cols ~capacity:1. in
  let hops = Array.fold_left ( + ) 0 (Topology.route_lengths unit_topo) in
  let mean_route =
    float_of_int hops /. float_of_int (Topology.n_routes unit_topo)
  in
  let demand = float_of_int calls_ref *. mean_rate in
  let per_link =
    demand *. mean_route /. float_of_int (Topology.n_links unit_topo)
  in
  {
    scheds;
    movie_s = !movie_s;
    topo = Topology.grid ~rows ~cols ~capacity:(link_load_factor *. per_link);
    ctrl_capacity = admit_margin *. demand;
    synth_s = !synth_s;
    solve_s = !solve_s;
    expanded = !expanded;
    max_frontier = !max_frontier;
    sched_interval = !interval /. float_of_int n_traces;
  }

let make_switch setup =
  let ctrl = Controller.memory ~capacity:setup.ctrl_capacity ~target in
  let sw =
    Switchd.create
      { (Switchd.default_config setup.topo) with Switchd.controller = Some ctrl }
  in
  (sw, ctrl)

(* --- the client ------------------------------------------------------- *)

type reply = Reply of Codec.t | No_reply | Broken

(* The calendar's event for the next call arrival; other events carry
   the slot of the call they belong to. *)
let arrival = -1

type client = {
  rng : Rng.t;
  setup : setup;
  send : now:float -> Codec.t -> reply;
  wheel : int Wheel.t;
  free : int Stack.t;  (** idle slots *)
  call : int array;  (** live call id of each busy slot *)
  sched : int array;
  seg : int array;
  cycle : int array;
  origin : float array;  (** time schedule slot 0 of cycle 0 plays *)
  applied : float array;  (** mirror of the switch's applied rate *)
  end_t : float array;
  changes : int array;  (** rate changes the call has signalled *)
  mutable next_call : int;
  mutable next_req : int;
  mutable live : int;
  mutable last_now : float;
  mutable live_seconds : float;
  mutable sent : int;
  mutable failed : int;
  mutable setups : int;
  mutable setup_denied : int;
  mutable renegs : int;
  mutable increases : int;
  mutable reneg_denied : int;
  mutable teardowns : int;
  mutable deltas : int;
  mutable resyncs : int;
  mutable hash : int;
}

let zero_counters c =
  c.live_seconds <- 0.;
  c.sent <- 0;
  c.failed <- 0;
  c.setups <- 0;
  c.setup_denied <- 0;
  c.renegs <- 0;
  c.increases <- 0;
  c.reneg_denied <- 0;
  c.teardowns <- 0;
  c.deltas <- 0;
  c.resyncs <- 0

let boundary_time c s =
  let sc = c.setup.scheds.(c.sched.(s)) in
  let k = c.seg.(s) + 1 in
  let k, cyc = if k = Array.length sc.starts then (0, c.cycle.(s) + 1) else (k, c.cycle.(s)) in
  c.origin.(s) +. (float_of_int ((cyc * sc.n_slots) + sc.starts.(k)) /. sc.fps)

let schedule_next c s =
  let at = Float.min (boundary_time c s) c.end_t.(s) in
  ignore (Wheel.push c.wheel ~time:at s)

let send c ~now msg =
  c.sent <- c.sent + 1;
  c.send ~now msg

let fresh_req c =
  let r = c.next_req in
  c.next_req <- r + 1;
  r

let record c req tag x =
  c.hash <- Round.fnv_float (Round.fnv (Round.fnv c.hash req) tag) x

let fail c = c.failed <- c.failed + 1

(* A new call that holds for [hold] seconds.  A blocked call is lost. *)
let try_setup c ~now ~hold =
  let s =
    match Stack.pop_opt c.free with
    | Some s -> s
    | None -> failwith "switch-reneg: more live calls than slots"
  in
  let j = Rng.int c.rng n_traces in
  let sc = c.setup.scheds.(j) in
  let offset = Rng.int c.rng sc.n_slots in
  let routes = c.setup.topo.Topology.routes in
  let route = routes.(Rng.int c.rng (Array.length routes)) in
  (* Last segment starting at or before [offset]. *)
  let k = ref 0 in
  while !k + 1 < Array.length sc.starts && sc.starts.(!k + 1) <= offset do
    incr k
  done;
  let rate = sc.rates.(!k) in
  let call = c.next_call in
  c.next_call <- call + 1;
  let req = fresh_req c in
  c.setups <- c.setups + 1;
  match
    send c ~now
      (Codec.Setup
         { req; call; route; transit = Array.length route > 1; rate })
  with
  | Reply (Codec.Ack a) when a.req = req && Float.equal a.applied rate ->
      record c req 1 rate;
      c.call.(s) <- call;
      c.sched.(s) <- j;
      c.seg.(s) <- !k;
      c.cycle.(s) <- 0;
      c.origin.(s) <- now -. (float_of_int offset /. sc.fps);
      c.applied.(s) <- rate;
      c.end_t.(s) <- now +. hold;
      c.changes.(s) <- 0;
      c.live <- c.live + 1;
      schedule_next c s
  | Reply (Codec.Deny { req = r; reason = Codec.Capacity }) when r = req ->
      record c req 2 0.;
      c.setup_denied <- c.setup_denied + 1;
      Stack.push s c.free
  | _ ->
      fail c;
      Stack.push s c.free

let teardown c s ~now =
  let req = fresh_req c in
  c.teardowns <- c.teardowns + 1;
  (match send c ~now (Codec.Teardown { req; call = c.call.(s) }) with
  | Reply (Codec.Ack a) when a.req = req && Float.equal a.applied 0. ->
      record c req 3 0.
  | _ -> fail c);
  c.live <- c.live - 1;
  Stack.push s c.free

let boundary c s ~now =
  let sc = c.setup.scheds.(c.sched.(s)) in
  let k = c.seg.(s) + 1 in
  if k = Array.length sc.starts then begin
    c.seg.(s) <- 0;
    c.cycle.(s) <- c.cycle.(s) + 1
  end
  else c.seg.(s) <- k;
  let rate = sc.rates.(c.seg.(s)) in
  let applied = c.applied.(s) in
  let call = c.call.(s) in
  if Float.equal rate applied then ()
  else begin
    let n = c.changes.(s) in
    c.changes.(s) <- n + 1;
    if Rng.float c.rng < rm_fraction then begin
      c.deltas <- c.deltas + 1;
      (match send c ~now (Codec.Delta { vci = call; delta = rate -. applied }) with
      | No_reply -> c.applied.(s) <- rate
      | _ -> fail c);
      if n mod resync_every = resync_every - 1 then begin
        c.resyncs <- c.resyncs + 1;
        match send c ~now (Codec.Resync { vci = call; rate }) with
        | No_reply -> ()
        | _ -> fail c
      end
    end
    else begin
      let req = fresh_req c in
      c.renegs <- c.renegs + 1;
      if rate > applied then c.increases <- c.increases + 1;
      match send c ~now (Codec.Renegotiate { req; call; rate }) with
      | Reply (Codec.Ack a) when a.req = req && Float.equal a.applied rate ->
          record c req 4 rate;
          c.applied.(s) <- rate
      | Reply (Codec.Deny { req = r; reason = Codec.Capacity })
        when r = req && rate > applied ->
          record c req 5 0.;
          c.reneg_denied <- c.reneg_denied + 1
      | _ -> fail c
    end
  end;
  schedule_next c s

let next_arrival c ~now =
  let rate = float_of_int calls_ref /. c.setup.movie_s in
  ignore (Wheel.push c.wheel ~time:(now +. Rng.exponential c.rng rate) arrival)

(* Pop calendar events until one more request has been made. *)
let step c =
  let before = c.sent in
  while c.sent = before do
    match Wheel.pop c.wheel with
    | None -> assert false (* the next arrival is always pending *)
    | Some (now, s) ->
        c.live_seconds <- c.live_seconds +. (float_of_int c.live *. (now -. c.last_now));
        c.last_now <- now;
        if s = arrival then begin
          try_setup c ~now ~hold:c.setup.movie_s;
          next_arrival c ~now
        end
        else if c.end_t.(s) <= now then teardown c s ~now
        else boundary c s ~now
  done

let make_client rng setup send =
  let c =
    {
      rng;
      setup;
      send;
      wheel = Wheel.create ();
      free = Stack.create ();
      call = Array.make slots (-1);
      sched = Array.make slots 0;
      seg = Array.make slots 0;
      cycle = Array.make slots 0;
      origin = Array.make slots 0.;
      applied = Array.make slots 0.;
      end_t = Array.make slots 0.;
      changes = Array.make slots 0;
      next_call = 0;
      next_req = 0;
      live = 0;
      last_now = 0.;
      live_seconds = 0.;
      sent = 0;
      failed = 0;
      setups = 0;
      setup_denied = 0;
      renegs = 0;
      increases = 0;
      reneg_denied = 0;
      teardowns = 0;
      deltas = 0;
      resyncs = 0;
      hash = 0;
    }
  in
  for s = slots - 1 downto 0 do
    Stack.push s c.free
  done;
  (* Opening the initial calls in the steady state of the arrival
     process: [calls_ref] calls, spread over the first simulated second,
     each with a residual holding time uniform over the movie length. *)
  for i = 0 to calls_ref - 1 do
    let now = float_of_int i /. float_of_int calls_ref in
    c.last_now <- now;
    try_setup c ~now ~hold:(Rng.float c.rng *. setup.movie_s)
  done;
  next_arrival c ~now:c.last_now;
  zero_counters c;
  c

(* Decode the reply frames [Switchd.input] returned for one request. *)
let reply_of = function
  | Ok [] -> No_reply
  | Ok [ f ] when String.length f > 4 -> (
      match Codec.decode (String.sub f 4 (String.length f - 4)) with
      | Ok m -> Reply m
      | Error _ -> Broken)
  | Ok _ | Error _ -> Broken

(* --- one round ---------------------------------------------------------- *)

type traced = {
  frame : Meter.acc;
  decode : Meter.acc;
  handle : Meter.acc;
  encode : Meter.acc;
  input : Meter.acc;
  advance : Meter.acc;
  fits : Meter.acc;
  settle : Meter.acc;
  admit : Meter.acc;
  update : Meter.acc;
  mutable mismatches : int;
}

(* The traced path drives a second, identical switch through the layers
   [Switchd.input] composes — frame reader, [Switchd.handle], reply
   framing — timing each, while shadow links, sessions and a shadow
   controller replay the same accepted changes so the network and
   admission calls can be timed on equal state.  The first switch still
   takes the request through [Switchd.input]; both must answer with the
   same bytes. *)
let traced_send setup tr =
  let sw, ctrl_a = make_switch setup in
  let conn = Switchd.connect sw in
  let sw_b, _ = make_switch setup in
  let conn_b = Switchd.connect sw_b in
  let reader = Frame.Reader.create () in
  let links = Link.of_topology setup.topo in
  let sessions : (int, Session.t) Hashtbl.t = Hashtbl.create 4096 in
  let ctrl = Controller.memory ~capacity:setup.ctrl_capacity ~target in
  let timed a f =
    let w0 = Meter.words () in
    let t0 = Meter.now_ns () in
    let r = f () in
    Meter.stop a t0 w0;
    r
  in
  let advance_all ~now =
    timed tr.advance (fun () -> Array.iter (fun l -> Link.advance l ~now) links)
  in
  let shadow ~now msg reply =
    let accepted = match reply with Reply (Codec.Ack _) -> true | _ -> false in
    match msg with
    | Codec.Setup { call; route; transit; rate; _ } ->
        ignore (timed tr.admit (fun () -> Controller.admit ctrl ~now));
        let s = Session.make ~id:call ~route ~transit in
        ignore (timed tr.fits (fun () -> Session.fits ~links s ~rate ~now));
        if accepted then begin
          advance_all ~now;
          timed tr.settle (fun () -> Session.settle ~links s ~rate);
          Hashtbl.replace sessions call s;
          timed tr.update (fun () -> Controller.on_admit ctrl ~now ~call ~rate)
        end
    | Codec.Renegotiate { call; rate; _ } ->
        let s = Hashtbl.find sessions call in
        if rate > s.Session.applied then
          ignore (timed tr.fits (fun () -> Session.fits ~links s ~rate ~now));
        if accepted then begin
          advance_all ~now;
          timed tr.settle (fun () -> Session.settle ~links s ~rate);
          timed tr.update (fun () ->
              Controller.on_renegotiate ctrl ~now ~call ~rate)
        end
    | Codec.Teardown { call; _ } ->
        let s = Hashtbl.find sessions call in
        advance_all ~now;
        timed tr.settle (fun () -> Session.settle ~links s ~rate:0.);
        Hashtbl.remove sessions call;
        timed tr.update (fun () -> Controller.on_depart ctrl ~now ~call)
    | Codec.Delta { vci; delta } ->
        let s = Hashtbl.find sessions vci in
        advance_all ~now;
        let rate = Float.max 0. (s.Session.applied +. delta) in
        timed tr.settle (fun () -> Session.settle ~links s ~rate)
    | Codec.Resync { vci; rate } ->
        let s = Hashtbl.find sessions vci in
        advance_all ~now;
        timed tr.settle (fun () -> Session.settle ~links s ~rate)
    | _ -> ()
  in
  let send ~now msg =
    let frame = Codec.frame msg in
    let out = timed tr.input (fun () -> Switchd.input sw conn ~now frame) in
    let reply = reply_of out in
    let b_out =
      match
        timed tr.frame (fun () ->
            Frame.Reader.feed_string reader frame;
            let m = Frame.Reader.next reader in
            (m, Frame.Reader.next reader))
      with
      | `Msg m, `Await -> (
          let payload = String.sub frame 4 (String.length frame - 4) in
          ignore (timed tr.decode (fun () -> Codec.decode payload));
          match timed tr.handle (fun () -> Switchd.handle sw_b conn_b ~now m) with
          | None -> Ok []
          | Some r -> Ok [ timed tr.encode (fun () -> Codec.frame r) ])
      | _ -> Error Codec.Empty
    in
    if b_out <> out then tr.mismatches <- tr.mismatches + 1;
    shadow ~now msg reply;
    reply
  in
  (send, sw, ctrl_a)

let run ~seed ~traced ~base_input_ns =
  let rng = Rng.create seed in
  let t_setup = Meter.now_ns () in
  let setup = make_setup () in
  let tr =
    let a = Meter.acc in
    {
      frame = a ();
      decode = a ();
      handle = a ();
      encode = a ();
      input = a ();
      advance = a ();
      fits = a ();
      settle = a ();
      admit = a ();
      update = a ();
      mismatches = 0;
    }
  in
  (* One step can send a delta and its resync. *)
  let latency = Samples.create (requests + 1) in
  let alloc = ref 0. in
  let send, sw, ctrl =
    if traced then traced_send setup tr
    else begin
      let sw, ctrl = make_switch setup in
      let conn = Switchd.connect sw in
      let send ~now msg =
        let frame = Codec.frame msg in
        let w0 = Meter.words () in
        let t0 = Meter.now_ns () in
        let out = Switchd.input sw conn ~now frame in
        let t1 = Meter.now_ns () in
        alloc := !alloc +. (Meter.words () -. w0);
        Samples.add latency (t1 - t0);
        reply_of out
      in
      (send, sw, ctrl)
    end
  in
  let c = make_client (Rng.split rng) setup send in
  let setup_s = seconds_since t_setup in
  Gc.compact ();
  latency.Samples.n <- 0;
  alloc := 0.;
  List.iter Meter.reset
    [ tr.frame; tr.decode; tr.handle; tr.encode; tr.input; tr.advance; tr.fits;
      tr.settle; tr.admit; tr.update ];
  let t0_now = c.last_now in
  let stats = Switchd.stats sw in
  let requests0 =
    stats.setups + stats.renegotiations + stats.teardowns + stats.deltas
    + stats.resyncs
  and denials0 = stats.denials in
  let (), gc = Round.with_gc (fun () -> while c.sent < requests do step c done) in
  let peak_rss_mb = Meter.peak_rss_mb () in
  let drain = Switchd.drain sw in
  let failed =
    c.failed + tr.mismatches + drain.Switchd.violations
    + (if drain.Switchd.live_sessions = c.live then 0 else 1)
    + stats.decode_errors + stats.unexpected + stats.stray_cells
    + stats.underflows + stats.duplicates
  in
  let live_mean = c.live_seconds /. (c.last_now -. t0_now) in
  let changes = c.renegs + c.deltas in
  let share n = float_of_int n /. float_of_int c.sent in
  let cstats = Controller.stats ctrl in
  let layers =
    if not traced then []
    else
      let input_ns = Meter.mean_ns tr.input in
      let handle_ns = Meter.mean_ns tr.handle in
      let requests_total =
        stats.setups + stats.renegotiations + stats.teardowns + stats.deltas
        + stats.resyncs
      in
      [
        ("wire.frame_ns", Meter.mean_ns tr.frame);
        ("wire.frame_words", Meter.mean_words tr.frame);
        ("wire.decode_ns", Meter.mean_ns tr.decode);
        ("wire.decode_words", Meter.mean_words tr.decode);
        ("wire.encode_ns", Meter.mean_ns tr.encode);
        ("wire.encode_words", Meter.mean_words tr.encode);
        ("switchd.handle_ns", handle_ns);
        ("switchd.handle_words", Meter.mean_words tr.handle);
        ("switchd.input_ns", input_ns);
        ("switchd.wire_self_ns", input_ns -. handle_ns);
        ("switchd.requests", float_of_int (requests_total - requests0));
        ("switchd.denials", float_of_int (stats.denials - denials0));
        ("net.link_advance_ns", Meter.mean_ns tr.advance);
        ("net.link_advance_words", Meter.mean_words tr.advance);
        ("net.session_fits_ns", Meter.mean_ns tr.fits);
        ("net.session_settle_ns", Meter.mean_ns tr.settle);
        ("admission.admit_ns", Meter.mean_ns tr.admit);
        ("admission.admit_words", Meter.mean_words tr.admit);
        ("admission.update_ns", Meter.mean_ns tr.update);
        ("effbw.mgf_evals", float_of_int cstats.Controller.solver.Rcbr_effbw.Chernoff.Solver.mgf_evals);
        ("effbw.queries", float_of_int cstats.Controller.solver.Rcbr_effbw.Chernoff.Solver.queries);
        ( "effbw.memo_hit_frac",
          float_of_int cstats.Controller.solver.Rcbr_effbw.Chernoff.Solver.memo_hits
          /. float_of_int cstats.Controller.decisions );
        ("core.solve_s", setup.solve_s);
        ("core.expanded_nodes", float_of_int setup.expanded);
        ("core.max_frontier", float_of_int setup.max_frontier);
        ("traffic.synth_s", setup.synth_s);
        ( "trace.overhead_frac",
          (float_of_int tr.input.Meter.ns /. float_of_int tr.input.Meter.calls)
          /. base_input_ns -. 1. );
      ]
  in
  {
    Round.setup_s;
    ops = c.sent;
    busy_ns = (if traced then tr.input.Meter.ns else Samples.total latency);
    alloc_words = (if traced then tr.input.Meter.words else !alloc);
    peak_rss_mb;
    latency;
    failed;
    reneg_attempts = c.increases;
    reneg_denied = c.reneg_denied;
    call_attempts = c.setups;
    call_denied = c.setup_denied;
    fingerprint =
      [
        ("outcome_hash", c.hash);
        ("decision_hash", cstats.Controller.decision_hash);
        ("requests", c.sent);
        ("live_calls", c.live);
      ];
    gc;
    shape =
      [
        ("share.setup", share c.setups);
        ("share.teardown", share c.teardowns);
        ("share.renegotiate", share c.renegs);
        ("share.delta", share c.deltas);
        ("share.resync", share c.resyncs);
        ("reneg_interval_s", c.live_seconds /. float_of_int changes);
        ("schedule_reneg_interval_s", setup.sched_interval);
        ("setup_denied_share", float_of_int c.setup_denied /. float_of_int c.setups);
        ("reneg_increase_share", float_of_int c.increases /. float_of_int c.renegs);
        ("reneg_denied_share", float_of_int c.reneg_denied /. float_of_int c.increases);
        ("live_calls_mean", live_mean);
        ("links", float_of_int (Topology.n_links setup.topo));
        ( "route_len_mean",
          float_of_int (Array.fold_left ( + ) 0 (Topology.route_lengths setup.topo))
          /. float_of_int (Topology.n_routes setup.topo) );
        ("simulated_s", c.last_now -. t0_now);
        ("cost_ratio", cost_ratio);
        ("call_hold_s", setup.movie_s);
        ("offered_erlangs", float_of_int calls_ref);
      ];
    layers;
  }
