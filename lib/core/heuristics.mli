(** Heuristic baselines: LPT greedy construction and local search.

    These are the fast, non-optimal comparators used by ablation A4. All
    randomness is seeded and reproducible. *)

type outcome = { architecture : Architecture.t; test_time : int }

(** [greedy problem ~widths] assigns clusters largest-first to the bus
    that minimizes the resulting load, honouring exclusion constraints
    greedily. [None] when the greedy order gets stuck (the instance may
    still be feasible) or the constraints are contradictory. *)
val greedy : Problem.t -> widths:int array -> outcome option

(** [improve problem outcome] runs first-improvement local search from an
    initial solution: cluster moves, cluster swaps and unit width
    transfers between buses, tried in that order, each candidate kept
    only if feasible and strictly faster, until a local optimum is
    reached. The search is incremental: per-bus loads, per-width
    cluster times and the count of co-located exclusion pairs are
    updated by each candidate and undone on rejection, so a candidate
    costs O(buses) (a width transfer O(clusters)) rather than an
    architecture rebuild and a full {!Cost.evaluate}. The trajectory
    is the full re-evaluation's, move for move. *)
val improve : Problem.t -> outcome -> outcome

(** [solve ?seed ?restarts problem] is the full heuristic: greedy over a
    spread of width partitions plus [restarts] randomized starts
    (default 8), each polished with {!improve}; returns the best feasible
    solution found. [should_stop] is polled before each start — a racing
    caller can cut the restart loop short; the best-so-far is still
    returned. [report] fires on every strictly improving polished
    solution, in discovery order — the hook a race uses to publish
    incumbents the moment they land. With the default hooks the result
    is unchanged and deterministic in [seed]. *)
val solve :
  ?seed:int ->
  ?restarts:int ->
  ?should_stop:(unit -> bool) ->
  ?report:(outcome -> unit) ->
  Problem.t ->
  outcome option
