(** Simulated-annealing baseline.

    A second, stronger heuristic comparator for the exact solvers:
    anneals over (width vector, cluster assignment) states with cluster
    moves, cluster swaps and unit width transfers, accepting uphill moves
    with the Metropolis rule under a geometric cooling schedule. Fully
    deterministic for a given [seed]. Infeasible neighbours (violating an
    exclusion constraint) are never entered; co-assignment constraints
    are honoured by construction (annealing runs on clusters). *)

type outcome = { architecture : Architecture.t; test_time : int }

(** [solve ?seed ?iterations ?initial_temperature ?cooling problem] runs
    the annealer from the greedy solution ([Heuristics.solve ~seed]).
    Defaults: seed 1, 20_000 iterations, initial temperature set to 5% of
    the initial makespan, cooling factor 0.999. [None] when no feasible
    starting point could be constructed. [start] replaces the greedy
    run with an architecture the caller already has — a race passes
    its greedy engine's result, so [solve ~start] with
    [Heuristics.solve ~seed]'s architecture equals [solve]. [start] must
    be feasible. [should_stop] is polled before and during the greedy
    run and once per iteration; on [true] the loop exits early and the
    best solution found so far is returned ([None] if it was already
    [true] on entry and no [start] was given). [report] fires on every
    strictly improving accepted state, in discovery order — racing
    callers publish incumbents through it. With the default hooks the
    result is unchanged and deterministic in [seed]. *)
val solve :
  ?seed:int ->
  ?start:Architecture.t ->
  ?iterations:int ->
  ?initial_temperature:float ->
  ?cooling:float ->
  ?should_stop:(unit -> bool) ->
  ?report:(outcome -> unit) ->
  Problem.t ->
  outcome option
