module Problem = Soctam_core.Problem
module Architecture = Soctam_core.Architecture
module Exact = Soctam_core.Exact
module Ilp = Soctam_core.Ilp_formulation
module Heuristics = Soctam_core.Heuristics
module Annealing = Soctam_core.Annealing
module Rect_sched = Soctam_sched.Rect_sched
module Pack_solver = Soctam_pack.Pack
module Obs = Soctam_obs.Obs
module Clock = Soctam_obs.Clock

type engine = Pack | Greedy | Anneal | Dp | Ilp

let engine_name = function
  | Pack -> "pack"
  | Greedy -> "greedy"
  | Anneal -> "anneal"
  | Dp -> "dp"
  | Ilp -> "ilp"

let default_engines = [ Pack; Greedy; Anneal; Dp; Ilp ]

type event = { test_time : int; engine : string; elapsed_ms : float }

type result = {
  solution : (Architecture.t * int) option;
  optimal : bool;
  winner : string option;
  certificate : string option;
  incumbents : int;
  nodes : int;
  lp_pivots : int;
  warm_starts : int;
  cold_solves : int;
  refactorizations : int;
  cuts_added : int;
  presolve_fixed : int;
  cancelled_nodes : int;
  elapsed_s : float;
}

type pack_result = {
  packing : Rect_sched.t option;
  optimal : bool;
  winner : string option;
  certificate : string option;
  incumbents : int;
  nodes : int;
  lower_bound : int;
  elapsed_s : float;
}

(* ------------------------------------------------------------------ *)
(* The protocol, shared by both engine families                        *)
(* ------------------------------------------------------------------ *)

(* A feasible answer of the racing family (an architecture or a
   packing), its test time and the name of the engine that found it. *)
type 'a incumbent = { value : 'a; best_time : int; source : string }

(* Everything the racing engines share. The three atomics carry the
   protocol (incumbent, lower bound, certificate); [stop] and [token]
   carry cancellation; [nodes] sums the complete engines' search
   nodes. *)
type 'a ctx = {
  start : float;
  deadline_s : float option;
  cell : 'a incumbent option Atomic.t;
  lb : int Atomic.t;
  certificate : (string * string) option Atomic.t;
  stop : bool Atomic.t;
  token : Pool.Cancel.token;
  published : int Atomic.t;
  nodes : int Atomic.t;
  on_event : event -> unit;
}

let should_stop ctx () =
  Atomic.get ctx.stop
  ||
  match ctx.deadline_s with
  | Some d -> Clock.now_s () > d
  | None -> false

let cell_time ctx = Option.map (fun inc -> inc.best_time) (Atomic.get ctx.cell)

(* First certificate wins; losers are cancelled cooperatively (stop
   flag, polled down to the simplex pivot level) and preemptively
   (queued pool tasks never start). *)
let certify ctx engine cert =
  if Atomic.compare_and_set ctx.certificate None (Some (engine, cert))
  then begin
    Obs.incr (Printf.sprintf "race.winner.%s" engine);
    Atomic.set ctx.stop true;
    Pool.Cancel.cancel ctx.token
  end

(* Monotone max on the shared lower bound, then check whether the
   current incumbent already meets it (a bound-match certificate). *)
let rec raise_lb ctx engine bound =
  let cur = Atomic.get ctx.lb in
  if bound > cur && not (Atomic.compare_and_set ctx.lb cur bound) then
    raise_lb ctx engine bound
  else
    match Atomic.get ctx.cell with
    | Some inc when inc.best_time <= Atomic.get ctx.lb ->
        certify ctx engine "bound"
    | _ -> ()

(* Publish a feasible answer. Strict improvement only, via CAS, so the
   cell's test time is monotone non-increasing and every successful
   publication is a genuinely improving event. *)
let rec publish ctx source value best_time =
  let cur = Atomic.get ctx.cell in
  match cur with
  | Some inc when inc.best_time <= best_time -> ()
  | _ ->
      if Atomic.compare_and_set ctx.cell cur (Some { value; best_time; source })
      then begin
        Atomic.incr ctx.published;
        Obs.incr "race.incumbent";
        Obs.incr (Printf.sprintf "race.incumbent.%s" source);
        ctx.on_event
          { test_time = best_time;
            engine = source;
            elapsed_ms = 1000.0 *. Clock.elapsed_s ~since:ctx.start };
        if best_time <= Atomic.get ctx.lb then certify ctx source "bound"
      end
      else publish ctx source value best_time

(* Run the named engines, each in a [race.engine] span: concurrently on
   a multi-domain pool, else sequentially in list order — each engine
   then inherits every bound published before it, and a certificate (or
   the deadline) skips the rest. *)
let run_portfolio ?pool ctx engines =
  let run (name, engine) =
    let sp = Obs.start () in
    engine ();
    Obs.finish ~args:[ ("engine", name) ] "race.engine" sp
  in
  match pool with
  | Some pool when Pool.num_domains pool > 1 ->
      ignore
        (Pool.map_cancellable pool ~token:ctx.token ~f:run
           (Array.of_list engines))
  | Some _ | None ->
      List.iter (fun e -> if not (should_stop ctx ()) then run e) engines

type 'a outcome = {
  answer : 'a incumbent option;
  optimal : bool;
  winner : string option;
  certificate : string option;
  incumbents : int;
  nodes : int;
  lower_bound : int;
  elapsed_s : float;
}

(* One race, whichever the family: a fresh context whose bound starts at
   [lower_bound ()], the portfolio [engines ctx], then the verdict. A
   certified incumbent is replaced by [canonical], the family's
   deterministic re-derivation, which makes the answer a pure function
   of the instance — identical across job counts and across which
   engine won the wall clock. A certificate over an empty cell means a
   complete engine proved the instance infeasible. Without a
   certificate (the deadline expired first) the best incumbent is
   handed back as is, honestly uncertified. [span] wraps it all. *)
let race ?pool ?deadline_s ?(on_event = fun _ -> ()) ~span ~lower_bound
    ~canonical engines =
  let sp = Obs.start () in
  let ctx =
    { start = Clock.now_s ();
      deadline_s;
      cell = Atomic.make None;
      lb = Atomic.make (lower_bound ());
      certificate = Atomic.make None;
      stop = Atomic.make false;
      token = Pool.Cancel.create ();
      published = Atomic.make 0;
      nodes = Atomic.make 0;
      on_event }
  in
  run_portfolio ?pool ctx (engines ctx);
  let incumbent = Atomic.get ctx.cell in
  let answer, optimal, winner, certificate =
    match Atomic.get ctx.certificate with
    | Some (engine, cert) ->
        (Option.map canonical incumbent, true, Some engine, Some cert)
    | None ->
        (incumbent, false, Option.map (fun inc -> inc.source) incumbent, None)
  in
  let o =
    { answer;
      optimal;
      winner;
      certificate;
      incumbents = Atomic.get ctx.published;
      nodes = Atomic.get ctx.nodes;
      lower_bound = Atomic.get ctx.lb;
      elapsed_s = Clock.elapsed_s ~since:ctx.start }
  in
  Obs.finish
    ~args:
      [ ("winner", Option.value winner ~default:"none");
        ("certificate", Option.value certificate ~default:"none");
        ("incumbents", string_of_int o.incumbents) ]
    span sp;
  o

(* ------------------------------------------------------------------ *)
(* The partition family: fixed buses, one width partition              *)
(* ------------------------------------------------------------------ *)

(* The partition engines' state beyond the protocol: the answer of a DP
   enumeration that completed, the MILP's statistics, and the greedy
   heuristic's once-cell ([greedy_mutex] guards [greedy]). *)
type partition = {
  problem : Problem.t;
  stream_greedy : bool;
  dp_solution : (Architecture.t * int) option Atomic.t;
  ilp_stats : Ilp.solve_stats option Atomic.t;
  greedy_mutex : Mutex.t;
  mutable greedy : Heuristics.outcome option option;
}

let run_pack st ctx =
  let bound =
    max (Problem.lower_bound st.problem) (Rect_sched.lower_bound st.problem)
  in
  (* The rectangle model is a relaxation of fixed buses (every
     architecture converts to a rectangle schedule of equal makespan),
     so its area bound is a sound lower bound here too. It must stay
     bound-only in THIS race: a packing's makespan can undercut the
     partition optimum, and publishing it into the cell would make the
     DP/ILP engines prune the true partition optimum away. The packing
     family races for real in {!solve_pack}, against its own cell. *)
  raise_lb ctx (engine_name Pack) bound

(* The greedy heuristic, run once per race by whichever of Greedy and
   Anneal asks first; the other waits for it and reuses the outcome.
   Its improvements stream as Greedy's, and only when Greedy is in the
   portfolio. *)
let greedy_outcome st ctx =
  Mutex.protect st.greedy_mutex @@ fun () ->
  match st.greedy with
  | Some outcome -> outcome
  | None ->
      let report =
        if st.stream_greedy then
          fun { Heuristics.architecture; test_time } ->
            publish ctx (engine_name Greedy) architecture test_time
        else ignore
      in
      let outcome =
        Heuristics.solve ~should_stop:(should_stop ctx) ~report st.problem
      in
      st.greedy <- Some outcome;
      outcome

(* The annealer refines the greedy outcome rather than recomputing it. *)
let run_anneal st ctx ~iterations =
  let publish = publish ctx (engine_name Anneal) in
  match greedy_outcome st ctx with
  | None -> ()
  | Some { Heuristics.architecture = start; _ } -> (
      match
        Annealing.solve ~start ~iterations ~should_stop:(should_stop ctx)
          ~report:(fun { Annealing.architecture; test_time } ->
            publish architecture test_time)
          st.problem
      with
      | Some { Annealing.architecture; test_time } ->
          publish architecture test_time
      | None -> ())

(* The complete enumeration engine: every width partition, each pruned
   by the freshest shared incumbent plus one (the DP's [upper_bound] is
   exclusive, so this keeps solutions equal to the incumbent). Pruning
   with a stale (larger) bound is sound: it only prunes less, and as
   long as the bound stays above the optimum the enumeration ends on the
   first optimal leaf of the first optimal width partition — exactly
   {!canonical_architecture}'s answer, so a complete DP needs no
   re-derivation. Completing the enumeration un-cancelled proves nothing
   beats the final incumbent, wherever it came from. *)
let run_dp st ctx =
  let r =
    Exact.solve ~should_stop:(should_stop ctx)
      ~upper_bound:(fun () -> Option.map (fun t -> t + 1) (cell_time ctx))
      ~report:(fun (architecture, test_time) ->
        publish ctx (engine_name Dp) architecture test_time)
      st.problem
  in
  ignore (Atomic.fetch_and_add ctx.nodes r.Exact.stats.Exact.nodes);
  if r.Exact.complete then begin
    Atomic.set st.dp_solution r.Exact.solution;
    certify ctx (engine_name Dp) "dp"
  end

(* The MILP engine races with its internal seeding off: the greedy
   engine already publishes to the cell, and the [?shared] hook folds
   the cell into the branch-and-bound's pruning threshold at every node
   entry. On an un-cancelled completion, [optimal = true] with no
   solution means "nothing strictly beats the tightest shared bound
   observed" — which certifies the cell. *)
let run_ilp st ctx =
  let publish = publish ctx (engine_name Ilp) in
  let r =
    Ilp.solve ~seed_incumbent:false
      ~shared:(fun () -> cell_time ctx)
      ~on_incumbent:(fun (architecture, test_time) ->
        publish architecture test_time)
      ~should_stop:(should_stop ctx) st.problem
  in
  Atomic.set st.ilp_stats (Some r.Ilp.stats);
  if r.Ilp.optimal then begin
    Option.iter (fun (a, t) -> publish a t) r.Ilp.solution;
    certify ctx (engine_name Ilp) "ilp"
  end

(* Re-derive a canonical architecture for the certified optimum: one
   deterministic DP pass bounded just above [t_star]. Only races whose
   DP did not complete need it. *)
let canonical_architecture problem t_star =
  Obs.span "race.finalize" @@ fun () ->
  (Exact.solve ~upper_bound:(fun () -> Some (t_star + 1)) problem)
    .Exact.solution

let solve ?pool ?deadline_s ?(engines = default_engines)
    ?(anneal_iterations = 4000) ?on_event problem =
  let st =
    { problem;
      stream_greedy = List.mem Greedy engines;
      dp_solution = Atomic.make None;
      ilp_stats = Atomic.make None;
      greedy_mutex = Mutex.create ();
      greedy = None }
  in
  let run ctx = function
    | Pack -> run_pack st ctx
    | Greedy -> ignore (greedy_outcome st ctx)
    | Anneal -> run_anneal st ctx ~iterations:anneal_iterations
    | Dp -> run_dp st ctx
    | Ilp -> run_ilp st ctx
  in
  let canonical inc =
    let derived =
      match Atomic.get st.dp_solution with
      | Some _ as dp -> dp
      | None -> canonical_architecture problem inc.best_time
    in
    match derived with
    | Some (value, best_time) -> { inc with value; best_time }
    | None ->
        (* The cell only holds feasible architectures, so the bounded
           re-derivation cannot come up empty. *)
        assert false
  in
  let o =
    race ?pool ?deadline_s ?on_event ~span:"race.solve"
      ~lower_bound:(fun () -> min_int) ~canonical (fun ctx ->
        List.map (fun e -> (engine_name e, fun () -> run ctx e)) engines)
  in
  let ilp_stats = Atomic.get st.ilp_stats in
  let pick f = match ilp_stats with Some s -> f s | None -> 0 in
  let cancelled_nodes = pick (fun s -> s.Ilp.cancelled_nodes) in
  if cancelled_nodes > 0 then
    Obs.incr ~n:cancelled_nodes "race.cancelled_nodes";
  { solution = Option.map (fun inc -> (inc.value, inc.best_time)) o.answer;
    optimal = o.optimal;
    winner = o.winner;
    certificate = o.certificate;
    incumbents = o.incumbents;
    nodes = o.nodes + pick (fun s -> s.Ilp.bb_nodes);
    lp_pivots = pick (fun s -> s.Ilp.lp_pivots);
    warm_starts = pick (fun s -> s.Ilp.warm_starts);
    cold_solves = pick (fun s -> s.Ilp.cold_solves);
    refactorizations = pick (fun s -> s.Ilp.refactorizations);
    cuts_added = pick (fun s -> s.Ilp.cuts_added);
    presolve_fixed = pick (fun s -> s.Ilp.presolve_fixed);
    cancelled_nodes;
    elapsed_s = o.elapsed_s }

(* ------------------------------------------------------------------ *)
(* The rectangle-packing family                                        *)
(* ------------------------------------------------------------------ *)

(* Deterministic re-derivation, mirroring [canonical_architecture]: a
   sequential exact search bounded just above the certified makespan.
   The certified value is achievable, so the search must rediscover a
   packing at it (the node budget is a pathology guard; on a blow we
   fall back to the live incumbent, still correct, merely not
   canonical). *)
let canonical_packing ?p_max_mw ~node_budget problem t_star =
  Obs.span "race.finalize" @@ fun () ->
  let r =
    Pack_solver.exact ?p_max_mw ~node_budget
      ~upper_bound:(fun () -> Some (t_star + 1))
      problem
  in
  match r.Pack_solver.packing with
  | Some p when p.Rect_sched.makespan <= t_star -> Some p
  | _ -> None

(* The greedy portfolio seeds the cell (streaming each improvement), and
   the exact packer prunes against it and certifies on exhaustion. Its
   own race, with its own cell, because the two makespans live in
   different models — see {!run_pack}. The bound starts at the packing
   lower bound, so a greedy packing that meets it certifies at once. *)
let solve_pack ?pool ?deadline_s ?p_max_mw ?(node_budget = 2_000_000)
    ?on_event problem =
  let publish ctx source (packing : Rect_sched.t) =
    publish ctx source packing packing.makespan
  in
  let greedy ctx () =
    ignore
      (Pack_solver.greedy ?p_max_mw ~should_stop:(should_stop ctx)
         ~report:(publish ctx "pack-greedy") problem)
  in
  let exact ctx () =
    let r =
      Pack_solver.exact ?p_max_mw ~node_budget
        ~upper_bound:(fun () -> cell_time ctx)
        ~on_incumbent:(publish ctx "pack-exact")
        ~should_stop:(should_stop ctx) problem
    in
    ignore (Atomic.fetch_and_add ctx.nodes r.Pack_solver.nodes);
    if r.Pack_solver.optimal then certify ctx "pack-exact" "exact"
  in
  let canonical inc =
    match canonical_packing ?p_max_mw ~node_budget problem inc.best_time with
    | Some p -> { inc with value = p; best_time = p.makespan }
    | None -> inc
  in
  let o =
    race ?pool ?deadline_s ?on_event ~span:"race.solve_pack"
      ~lower_bound:(fun () -> Pack_solver.lower_bound ?p_max_mw problem)
      ~canonical
      (fun ctx -> [ ("pack-greedy", greedy ctx); ("pack-exact", exact ctx) ])
  in
  { packing = Option.map (fun inc -> inc.value) o.answer;
    optimal = o.optimal;
    winner = o.winner;
    certificate = o.certificate;
    incumbents = o.incumbents;
    nodes = o.nodes;
    lower_bound = o.lower_bound;
    elapsed_s = o.elapsed_s }
