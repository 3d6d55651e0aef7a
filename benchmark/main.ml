(* The repository benchmark: one workload, one seed, one mode per run.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   Untraced (--trace 0): rounds of the workload run back to back until
   [--seconds] of wall time have passed (at least [exact_rounds]).
   Round [k] draws its traffic from a seed derived from the run's seed
   and [k mod exact_rounds].  The exact metrics and the hashes cover the
   first [exact_rounds] rounds, which every run makes, so they are a
   pure function of the seed; each later round repeats one of them and
   must agree with it exactly.  The timings pool all rounds:
   throughput is all operations over all time inside the program's
   calls, the percentiles are taken over every round's samples, and
   [setup_s] is the median over rounds.
   Traced (--trace 1): round 0 untraced, then round 0 again traced,
   whose per-layer numbers are reported; their ratio is the tracing
   overhead.

   Human-readable lines come first; the last line of standard output is
   one JSON object: correct, attempted, failed, metrics. *)

let exact_rounds = 5
let max_rounds = 40

(* The traffic seed of round [k] of a run. *)
let round_seed seed k =
  Round.fnv (Round.fnv 0 seed) (k mod exact_rounds) land 0x3fff_ffff

let end_to_end =
  [
    ("throughput_ops_s", "ops/s");
    ("op_p50_us", "us");
    ("op_p99_us", "us");
    ("setup_s", "s");
    ("peak_rss_mb", "MB");
    ("alloc_words_per_op", "words");
    ("success_frac", "frac");
    ("reneg_fail_frac", "frac");
    ("call_block_frac", "frac");
  ]

let per_layer =
  [
    ("wire.frame_ns", "ns");
    ("wire.frame_words", "words");
    ("wire.decode_ns", "ns");
    ("wire.decode_words", "words");
    ("wire.encode_ns", "ns");
    ("wire.encode_words", "words");
    ("switchd.handle_ns", "ns");
    ("switchd.handle_words", "words");
    ("switchd.input_ns", "ns");
    ("switchd.wire_self_ns", "ns");
    ("switchd.requests", "count");
    ("switchd.denials", "count");
    ("net.link_advance_ns", "ns");
    ("net.link_advance_words", "words");
    ("net.session_fits_ns", "ns");
    ("net.session_settle_ns", "ns");
    ("net.store_acquire_ns", "ns");
    ("net.store_release_ns", "ns");
    ("net.store_fits_ns", "ns");
    ("net.store_settle_ns", "ns");
    ("net.store_decide_downgrade_ns", "ns");
    ("net.store_try_upgrade_ns", "ns");
    ("admission.admit_ns", "ns");
    ("admission.admit_words", "words");
    ("admission.update_ns", "ns");
    ("admission.decide_ns", "ns");
    ("admission.batch_hit_frac", "frac");
    ("effbw.mgf_evals", "count");
    ("effbw.queries", "count");
    ("effbw.memo_hit_frac", "frac");
    ("queue.wheel_push_ns", "ns");
    ("queue.wheel_pop_ns", "ns");
    ("core.solve_s", "s");
    ("core.expanded_nodes", "count");
    ("core.max_frontier", "count");
    ("traffic.synth_s", "s");
    ("sim.events_per_call", "count");
    ("sim.replay_hash_match", "count");
    ("policy.downgrades_per_kcall", "1/kcall");
    ("policy.upgrades_per_kcall", "1/kcall");
    ("gc.minor_per_kop", "1/kop");
    ("gc.major_per_kop", "1/kop");
    ("gc.promoted_words_per_op", "words");
    ("trace.overhead_frac", "frac");
  ]

let run_round workload ~seed ~traced ~base =
  match workload with
  | "switch-reneg" -> Switch_reneg.run ~seed ~traced ~base_input_ns:base
  | "megacall-churn" -> Megacall_bench.run ~seed ~downgrade:false ~traced
  | "megacall-downgrade" -> Megacall_bench.run ~seed ~downgrade:true ~traced
  | w -> invalid_arg ("unknown workload " ^ w)

let frac n d = if d = 0 then 0. else float_of_int n /. float_of_int d

(* Mean op time of an untraced round: the base of the switch's tracing
   overhead. *)
let mean_op_ns (r : Round.t) =
  frac (Meter.Samples.total r.latency) (Meter.Samples.count r.latency)

let gc_layers (r : Round.t) =
  let g0, g1 = r.gc in
  [
    ( "gc.minor_per_kop",
      1000. *. frac (g1.Gc.minor_collections - g0.Gc.minor_collections) r.ops );
    ( "gc.major_per_kop",
      1000. *. frac (g1.Gc.major_collections - g0.Gc.major_collections) r.ops );
    ( "gc.promoted_words_per_op",
      (g1.Gc.promoted_words -. g0.Gc.promoted_words) /. float_of_int r.ops );
  ]

let json_number x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else Printf.sprintf "%.17g" x

let print_result ~correct ~attempted ~failed metrics =
  let body =
    List.map
      (fun (name, unit, v) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v)
          unit)
      metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct attempted failed
    (String.concat ", " body)

let print_fingerprint tag (r : Round.t) =
  List.iter (fun (k, v) -> Printf.printf "fingerprint %s%s = %d\n" tag k v) r.fingerprint

let print_shape (r : Round.t) =
  List.iter (fun (k, v) -> Printf.printf "  shape %s = %.6g\n" k v) r.shape

(* Two rounds of one traffic seed must do the same work. *)
let consistent (a : Round.t) (b : Round.t) =
  a.fingerprint = b.fingerprint
  && a.ops = b.ops
  && Float.equal a.alloc_words b.alloc_words
  && a.reneg_attempts = b.reneg_attempts
  && a.reneg_denied = b.reneg_denied
  && a.call_attempts = b.call_attempts
  && a.call_denied = b.call_denied

let throughput (r : Round.t) = float_of_int r.ops /. (float_of_int r.busy_ns *. 1e-9)

let untraced workload ~seed ~seconds =
  let deadline = Meter.now_ns () + int_of_float (seconds *. 1e9) in
  let rec go acc n =
    if n >= max_rounds || (n >= exact_rounds && Meter.now_ns () >= deadline) then
      List.rev acc
    else begin
      let r = run_round workload ~seed:(round_seed seed n) ~traced:false ~base:0. in
      let p50, p99 =
        match Meter.Samples.quantiles r.latency [ 0.5; 0.99 ] with
        | [ a; b ] -> (a, b)
        | _ -> assert false
      in
      Printf.printf "round %d  setup_s %.4f  ops/s %.1f  p50_us %.3f  p99_us %.3f\n%!"
        n r.setup_s (throughput r) (p50 /. 1000.) (p99 /. 1000.);
      Gc.compact ();
      go (r :: acc) (n + 1)
    end
  in
  let rounds = go [] 0 in
  let exact = List.filteri (fun i _ -> i < exact_rounds) rounds in
  let r0 = List.hd rounds in
  Printf.printf "workload %s  seed %d\n" workload seed;
  List.iteri (fun i r -> print_fingerprint (Printf.sprintf "round%d." i) r) exact;
  print_shape r0;
  let sum f = List.fold_left (fun a r -> a + f r) 0 in
  let attempted = sum (fun (r : Round.t) -> r.ops) rounds in
  let inconsistent =
    List.length
      (List.filteri
         (fun i r -> not (consistent (List.nth exact (i mod exact_rounds)) r))
         rounds)
  in
  let failed = sum (fun (r : Round.t) -> r.failed) rounds + inconsistent in
  let exact_ops = sum (fun (r : Round.t) -> r.ops) exact in
  let alloc = List.fold_left (fun a (r : Round.t) -> a +. r.alloc_words) 0. exact in
  let reneg_denied = sum (fun (r : Round.t) -> r.reneg_denied) exact
  and reneg_attempts = sum (fun (r : Round.t) -> r.reneg_attempts) exact
  and call_denied = sum (fun (r : Round.t) -> r.call_denied) exact
  and call_attempts = sum (fun (r : Round.t) -> r.call_attempts) exact in
  let busy_ns = sum (fun (r : Round.t) -> r.busy_ns) rounds in
  let samples = Meter.Samples.concat (List.map (fun (r : Round.t) -> r.latency) rounds) in
  let p50, p99 =
    match Meter.Samples.quantiles samples [ 0.5; 0.99 ] with
    | [ a; b ] -> (a, b)
    | _ -> assert false
  in
  let metrics =
    [
      ("throughput_ops_s", float_of_int attempted /. (float_of_int busy_ns *. 1e-9));
      ("op_p50_us", p50 /. 1000.);
      ("op_p99_us", p99 /. 1000.);
      ("setup_s", Meter.median (List.map (fun (r : Round.t) -> r.setup_s) rounds));
      (* Read in the first round, when the process has done exactly one
         set-up and one timed phase: later rounds only add the heap growth
         that repeating them in one process leaves behind. *)
      ("peak_rss_mb", r0.peak_rss_mb);
      ("alloc_words_per_op", alloc /. float_of_int exact_ops);
      ("success_frac", 1. -. frac failed attempted);
      ("reneg_fail_frac", frac reneg_denied reneg_attempts);
      ("call_block_frac", frac call_denied call_attempts);
    ]
  in
  Printf.printf
    "rounds %d (exact metrics over the first %d; inconsistent repeats %d)  ops %d  latency samples %d\n"
    (List.length rounds) (List.length exact) inconsistent attempted
    (Meter.Samples.count samples);
  Printf.printf "  error_frac = %d/%d  reneg_fail_frac = %d/%d  call_block_frac = %d/%d\n"
    failed attempted reneg_denied reneg_attempts call_denied call_attempts;
  List.iter (fun (k, v) -> Printf.printf "  %s = %.6g\n" k v) metrics;
  print_result ~correct:(failed = 0) ~attempted ~failed
    (List.map (fun (k, u) -> (k, u, List.assoc k metrics)) end_to_end)

let traced workload ~seed =
  let seed0 = round_seed seed 0 in
  let base = run_round workload ~seed:seed0 ~traced:false ~base:0. in
  Gc.compact ();
  let r = run_round workload ~seed:seed0 ~traced:true ~base:(mean_op_ns base) in
  Printf.printf "workload %s  seed %d\n" workload seed;
  print_fingerprint "round0." r;
  print_shape r;
  let layers = r.layers @ gc_layers base in
  (* Tracing must not change what the program did. *)
  let failed =
    base.failed + r.failed + if base.fingerprint = r.fingerprint then 0 else 1
  in
  List.iter (fun (k, v) -> Printf.printf "  %s = %.6g\n" k v) layers;
  print_result ~correct:(failed = 0)
    ~attempted:(base.ops + r.ops) ~failed
    (List.map
       (fun (k, u) ->
         (k, u, Option.value ~default:0. (List.assoc_opt k layers)))
       per_layer)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME switch-reneg | megacall-churn | megacall-downgrade");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S wall time to keep repeating rounds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer run");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  match !trace with
  | 0 -> untraced !workload ~seed:!seed ~seconds:!seconds
  | 1 -> traced !workload ~seed:!seed
  | t -> invalid_arg (Printf.sprintf "--trace %d: expected 0 or 1" t)
