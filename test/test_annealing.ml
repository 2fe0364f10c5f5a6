module Problem = Soctam_core.Problem
module Annealing = Soctam_core.Annealing
module Exact = Soctam_core.Exact
module Cost = Soctam_core.Cost
module Heuristics = Soctam_core.Heuristics
module Benchmarks = Soctam_soc.Benchmarks
module Obs = Soctam_obs.Obs

let s1 = Benchmarks.s1 ()

let test_feasible_and_consistent () =
  let problem = Problem.make s1 ~num_buses:2 ~total_width:16 in
  match Annealing.solve ~seed:3 problem with
  | None -> Alcotest.fail "unconstrained instance must anneal"
  | Some { Annealing.architecture; test_time } ->
      let e = Cost.evaluate problem architecture in
      Alcotest.(check bool) "feasible" true e.Cost.feasible;
      Alcotest.(check int) "time consistent" e.Cost.test_time test_time

let test_deterministic () =
  let problem = Problem.make s1 ~num_buses:3 ~total_width:18 in
  match (Annealing.solve ~seed:9 problem, Annealing.solve ~seed:9 problem) with
  | Some a, Some b ->
      Alcotest.(check int) "same seed same result" a.Annealing.test_time
        b.Annealing.test_time
  | _ -> Alcotest.fail "should succeed"

let test_respects_constraints () =
  let constraints =
    { Problem.exclusion_pairs = [ (0, 2); (1, 5) ]; co_pairs = [ (3, 4) ] }
  in
  let problem = Problem.make s1 ~constraints ~num_buses:2 ~total_width:14 in
  match Annealing.solve ~seed:5 problem with
  | None -> Alcotest.fail "feasible instance"
  | Some { Annealing.architecture; test_time } -> (
      match
        Soctam_core.Verify.check problem architecture ~claimed_time:test_time
      with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "verifier rejected: %s" msg)

let test_no_worse_than_greedy_start () =
  let problem = Problem.make s1 ~num_buses:2 ~total_width:20 in
  match (Heuristics.solve ~seed:7 problem, Annealing.solve ~seed:7 problem) with
  | Some greedy, Some annealed ->
      Alcotest.(check bool) "annealing keeps the best seen" true
        (annealed.Annealing.test_time <= greedy.Heuristics.test_time)
  | _ -> Alcotest.fail "both should succeed"

(* Already stopped on entry: no greedy start is even attempted. *)
let test_stopped_before_greedy () =
  let problem = Problem.make s1 ~num_buses:2 ~total_width:16 in
  Obs.enable ();
  let r = Annealing.solve ~should_stop:(fun () -> true) problem in
  Obs.disable ();
  let events, _ = Obs.drain () in
  Alcotest.(check bool) "no outcome" true (r = None);
  Alcotest.(check int) "no heuristic.solve span" 0
    (List.length
       (List.filter
          (fun (e : Obs.event) -> e.Obs.name = "heuristic.solve")
          events))

(* [~start] with the greedy architecture replaces the annealer's own
   greedy run and changes nothing else. *)
let prop_start_is_the_greedy_run =
  QCheck.Test.make ~name:"annealing from ~start equals the default"
    ~count:40 Gen.spec_arbitrary (fun spec ->
      let problem = Gen.problem_of_spec spec in
      match Heuristics.solve problem with
      | None -> Annealing.solve ~iterations:2_000 problem = None
      | Some { Heuristics.architecture = start; _ } ->
          let a = Annealing.solve ~iterations:2_000 problem
          and b = Annealing.solve ~start ~iterations:2_000 problem in
          (match (a, b) with
          | Some a, Some b ->
              a.Annealing.test_time = b.Annealing.test_time
              && a.Annealing.architecture = b.Annealing.architecture
          | _ -> false))

let prop_bounded_by_optimum =
  QCheck.Test.make ~name:"annealing is feasible and bounded by the optimum"
    ~count:30 Gen.spec_arbitrary (fun spec ->
      let problem = Gen.problem_of_spec spec in
      let optimum =
        match (Exact.solve problem).Exact.solution with
        | Some (_, t) -> Some t
        | None -> None
      in
      match (Annealing.solve ~iterations:2_000 problem, optimum) with
      | None, _ -> true
      | Some _, None -> false
      | Some a, Some opt ->
          let e = Cost.evaluate problem a.Annealing.architecture in
          e.Cost.feasible
          && e.Cost.test_time = a.Annealing.test_time
          && a.Annealing.test_time >= opt)

let suite =
  [ Alcotest.test_case "feasible and consistent" `Quick
      test_feasible_and_consistent;
    Alcotest.test_case "deterministic" `Quick test_deterministic;
    Alcotest.test_case "respects constraints" `Quick
      test_respects_constraints;
    Alcotest.test_case "no worse than greedy start" `Quick
      test_no_worse_than_greedy_start;
    Alcotest.test_case "stopped before the greedy start" `Quick
      test_stopped_before_greedy;
    QCheck_alcotest.to_alcotest prop_start_is_the_greedy_run;
    QCheck_alcotest.to_alcotest prop_bounded_by_optimum ]
