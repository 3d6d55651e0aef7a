(* Timing and allocation meters for the benchmark's own code.

   Timestamps are CLOCK_MONOTONIC nanoseconds read through bechamel's
   allocation-free stub: [Unix.gettimeofday] steps in whole
   microseconds, which swamps operations that take 2-6 us.  Allocation
   is [Gc.minor_words], an unboxed no-alloc external, so metering a call
   adds no words of its own. *)

let[@inline] now_ns () = Int64.to_int (Monotonic_clock.now ())
let[@inline] words () = Gc.minor_words ()

(* Per-operation latency samples in an unboxed int array, sized up front
   so the timed loop does not allocate; [add] doubles it only if a
   workload outgrows its estimate. *)
module Samples = struct
  type t = { mutable ns : int array; mutable n : int }

  let create cap = { ns = Array.make (max 16 cap) 0; n = 0 }

  let add t d =
    if t.n = Array.length t.ns then begin
      let bigger = Array.make (2 * t.n) 0 in
      Array.blit t.ns 0 bigger 0 t.n;
      t.ns <- bigger
    end;
    t.ns.(t.n) <- d;
    t.n <- t.n + 1

  let count t = t.n

  (* All samples of [ts] in one set. *)
  let concat ts =
    let all = create (List.fold_left (fun a t -> a + t.n) 0 ts) in
    List.iter
      (fun t ->
        Array.blit t.ns 0 all.ns all.n t.n;
        all.n <- all.n + t.n)
      ts;
    all

  let total t =
    let s = ref 0 in
    for i = 0 to t.n - 1 do
      s := !s + t.ns.(i)
    done;
    !s

  (* Linear interpolation between order statistics, in ns. *)
  let quantiles t qs =
    let a = Array.sub t.ns 0 t.n in
    Array.sort Int.compare a;
    List.map
      (fun q ->
        let h = q *. float_of_int (t.n - 1) in
        let lo = int_of_float h in
        let hi = min (lo + 1) (t.n - 1) in
        float_of_int a.(lo)
        +. ((h -. float_of_int lo) *. float_of_int (a.(hi) - a.(lo))))
      qs
end

(* Time and minor words summed over every call into one layer function. *)
type acc = { mutable calls : int; mutable ns : int; mutable words : float }

let acc () = { calls = 0; ns = 0; words = 0. }

let reset a =
  a.calls <- 0;
  a.ns <- 0;
  a.words <- 0.

let[@inline] stop a t0 w0 =
  let t1 = now_ns () in
  a.words <- a.words +. (words () -. w0);
  a.ns <- a.ns + (t1 - t0);
  a.calls <- a.calls + 1

(* Cost of one empty start/stop pair, subtracted from per-call means. *)
let clock_overhead_ns =
  lazy
    (let s = Samples.create 20_001 in
     for _ = 1 to 20_001 do
       let t0 = now_ns () in
       Samples.add s (now_ns () - t0)
     done;
     List.hd (Samples.quantiles s [ 0.5 ]))

let mean_ns a =
  if a.calls = 0 then 0.
  else
    (float_of_int a.ns /. float_of_int a.calls) -. Lazy.force clock_overhead_ns

let mean_words a = if a.calls = 0 then 0. else a.words /. float_of_int a.calls

let median = function
  | [] -> 0.
  | xs ->
      let a = Array.of_list xs in
      Array.sort Float.compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Peak resident set (VmHWM) of this process, in MB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf
          (String.sub line 6 (String.length line - 6))
          " %d kB"
          (fun kb -> float_of_int kb /. 1024.)
    | _ -> scan ()
    | exception End_of_file -> 0.
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan
