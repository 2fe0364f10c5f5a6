(** Exact solver: width-partition enumeration + optimal assignment.

    Bus labels carry no meaning in the DAC 2000 formulation (constraints
    only reference bus {e sharing}), so it suffices to enumerate the
    partitions of the width budget into [num_buses] unordered positive
    parts and to solve the optimal assignment ({!Dp_assign}) for each,
    keeping the incumbent across partitions for pruning. This solver is
    used to cross-validate the ILP on every experiment. *)

type stats = {
  partitions : int;  (** Width partitions enumerated. *)
  nodes : int;  (** Assignment search nodes over all partitions. *)
  elapsed_s : float;
}

type result = {
  solution : (Architecture.t * int) option;
      (** Optimal architecture and its test time; [None] when the
          constraints are unsatisfiable, or nothing beats [upper_bound]. *)
  complete : bool;  (** [false] when [should_stop] cut the search short. *)
  stats : stats;
}

(** [width_partitions ~total ~parts] enumerates the non-increasing
    positive integer sequences of length [parts] summing to [total].
    Raises [Invalid_argument] when [parts < 1] or [total < parts]. *)
val width_partitions : total:int -> parts:int -> int list list

(** [solve problem] computes a provably optimal architecture: the first
    optimum in {!width_partitions} order, whatever an [upper_bound] above
    the optimum returns. [should_stop] and the exclusive [upper_bound] are
    read before each partition; [report] sees each improving solution. *)
val solve :
  ?should_stop:(unit -> bool) -> ?upper_bound:(unit -> int option) ->
  ?report:(Architecture.t * int -> unit) -> Problem.t -> result
