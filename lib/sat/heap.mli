(** Indexed binary max-heap over variable indices, ordered by a caller-owned
    [float array] of scores (VSIDS activities).

    The heap stores each variable at most once and supports
    decrease/increase-key via {!update} in O(log n).  Comparisons read the
    score array directly, so no operation allocates except growth of the
    heap's own index arrays. *)

type t

val create : float array -> t
(** [create scores] orders variables by [scores.(v)].  The array is shared,
    not copied: bumping a score then calling {!update} reorders
    correctly.  Every inserted variable must index into it. *)

val set_scores : t -> float array -> unit
(** Re-point the heap at a new score array (after the owner grows it).
    The new array must agree with the old one on every member, so heap
    order is preserved. *)

val mem : t -> int -> bool
val is_empty : t -> bool
val size : t -> int

val insert : t -> int -> unit
(** No-op when the variable is already present. *)

val remove_max : t -> int
(** Raises [Not_found] when empty. *)

val update : t -> int -> unit
(** Restore heap order after the variable's score changed.  No-op when the
    variable is absent. *)
