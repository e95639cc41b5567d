(** Growable int arrays, used for trails, watch lists, clause-reference
    lists and solver scratch buffers.

    The element type is fixed to [int] so every access is a plain load or
    store: no generic-array dispatch and no write barrier.  Nothing in
    this module allocates except growth ({!push} past capacity) and the
    copying conversions ({!to_list}, {!to_array}, {!sort_in_place}). *)

type t

val create : unit -> t
val make : int -> t
(** [make capacity] pre-allocates capacity (length stays 0). *)

val length : t -> int
val is_empty : t -> bool
val get : t -> int -> int
val set : t -> int -> int -> unit

val unsafe_get : t -> int -> int
(** [get] without the bounds check.  The index must be within the live
    prefix; reserved for profiled hot loops (solver propagation). *)

val unsafe_set : t -> int -> int -> unit
(** [set] without the bounds check; same contract as {!unsafe_get}. *)

val push : t -> int -> unit
val pop : t -> int
(** Removes and returns the last element.  Raises [Invalid_argument] when
    empty. *)

val last : t -> int
val clear : t -> unit
val shrink : t -> int -> unit
(** [shrink v n] truncates to length [n] (must not exceed current length).
    Capacity is kept. *)

val iter : (int -> unit) -> t -> unit
val fold : ('b -> int -> 'b) -> 'b -> t -> 'b
val to_list : t -> int list

val to_array : t -> int array
(** A fresh copy of the live prefix. *)

val sort_in_place : (int -> int -> int) -> t -> unit
(** Sorts the live prefix. *)

val filter_in_place : (int -> bool) -> t -> unit
(** Keeps elements satisfying the predicate, preserving order. *)
