(* What one round of a workload measured.  A round is a fixed, seeded
   amount of work: set-up, then a timed phase of program calls.  Two
   rounds of one traffic seed do the same work, so their exact fields
   ([alloc_words], the counts and [fingerprint]) must agree; the timings
   are what the medians are taken over. *)

type t = {
  setup_s : float;
  ops : int;  (** operations passed to the program in the timed phase *)
  busy_ns : int;  (** time spent inside those calls *)
  alloc_words : float;  (** minor words allocated inside those calls *)
  peak_rss_mb : float;  (** VmHWM right after the timed phase *)
  latency : Meter.Samples.t;  (** per-operation latency samples, ns *)
  failed : int;
  reneg_attempts : int;
  reneg_denied : int;
  call_attempts : int;
  call_denied : int;
  fingerprint : (string * int) list;  (** hashes and exact counts *)
  gc : Gc.stat * Gc.stat;  (** [quick_stat] around the timed phase *)
  shape : (string * float) list;  (** traffic record, see README.md *)
  layers : (string * float) list;  (** per-layer numbers (traced runs) *)
}

let fnv h v = (h lxor v) * 0x100000001b3 land max_int
let fnv_float h x = fnv h (Int64.to_int (Int64.bits_of_float x) land max_int)

(* Timed phase bracket: runs [f] between two GC snapshots. *)
let with_gc f =
  let g0 = Gc.quick_stat () in
  let r = f () in
  (r, (g0, Gc.quick_stat ()))
