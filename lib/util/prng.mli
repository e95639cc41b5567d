(** Deterministic pseudo-random number generation (SplitMix64).

    Every randomized component of the library — benchmark generators, locking
    schemes, attack heuristics — draws from this generator, so any experiment
    is reproducible from a single integer seed.  The generator is *not*
    cryptographic; it is chosen for speed and excellent statistical quality at
    64-bit width. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] returns a fresh generator.  Equal seeds yield equal
    streams. *)

val copy : t -> t
(** [copy g] is an independent generator with the same current state. *)

val split : t -> t
(** [split g] derives a statistically independent child generator and
    advances [g].  Use one child per parallel task to keep parallel runs
    reproducible regardless of scheduling. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val bool : t -> bool
(** Uniform boolean. *)

val bits53 : t -> int
(** The top 53 bits of the next {!bits64} output, as a non-negative int:
    [float g 1.0 = float_of_int (bits53 g) /. 2{^53}] draw for draw.
    Allocates nothing, so hot loops can test [float_of_int (bits53 g) < p
    *. 2{^53}] instead of drawing a boxed float. *)

val int : t -> int -> int
(** [int g bound] is uniform in [\[0, bound)].  [bound] must be positive.
    Allocates nothing. *)

val float : t -> float -> float
(** [float g bound] is uniform in [\[0, bound)]. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val choose : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)

val sample : t -> k:int -> n:int -> int list
(** [sample g ~k ~n] draws [k] distinct integers from [\[0, n)], in increasing
    order.  Requires [0 <= k <= n]. *)
