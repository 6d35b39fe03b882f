(** Deterministic, splittable pseudo-random number generator.

    The generator is a splitmix64 stream.  Determinism across runs for a
    fixed seed is a hard requirement: every experiment harness records its
    seed, and the test-suite pins exact values.  [split] derives an
    independent stream, which lets each subsystem own a generator without
    perturbing the draws of the others when the topology changes. *)

type t

val create : int64 -> t
(** [create seed] makes a fresh stream.  Equal seeds yield equal streams. *)

val split : t -> t
(** [split t] derives a new independent stream (advances [t] once). *)

val next_int64 : t -> int64
(** Next raw 64-bit draw. *)

val float : t -> float
(** Uniform draw in [0, 1). *)

val int : t -> int -> int
(** [int t bound] draws uniformly in [0, bound).  [bound] must be > 0. *)

val range_float : t -> float -> float -> float
(** [range_float t lo hi] draws uniformly in [lo, hi). *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)
