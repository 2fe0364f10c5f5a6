module Problem = Soctam_core.Problem
module Heuristics = Soctam_core.Heuristics
module Exact = Soctam_core.Exact
module Cost = Soctam_core.Cost
module Architecture = Soctam_core.Architecture
module Clustering = Soctam_core.Clustering
module Benchmarks = Soctam_soc.Benchmarks

let s1 = Benchmarks.s1 ()

let test_greedy_feasible () =
  let problem = Problem.make s1 ~num_buses:2 ~total_width:16 in
  match Heuristics.greedy problem ~widths:[| 8; 8 |] with
  | None -> Alcotest.fail "greedy should succeed unconstrained"
  | Some { Heuristics.architecture; test_time } ->
      let e = Cost.evaluate problem architecture in
      Alcotest.(check bool) "feasible" true e.Cost.feasible;
      Alcotest.(check int) "time consistent" e.Cost.test_time test_time

let test_greedy_respects_exclusions () =
  let constraints =
    { Problem.exclusion_pairs = [ (0, 1); (2, 3) ]; co_pairs = [] }
  in
  let problem = Problem.make s1 ~constraints ~num_buses:2 ~total_width:16 in
  match Heuristics.greedy problem ~widths:[| 8; 8 |] with
  | None -> Alcotest.fail "greedy should place these"
  | Some { Heuristics.architecture; _ } ->
      let a = architecture.Soctam_core.Architecture.assignment in
      Alcotest.(check bool) "0 and 1 split" true (a.(0) <> a.(1));
      Alcotest.(check bool) "2 and 3 split" true (a.(2) <> a.(3))

let test_improve_never_worsens () =
  let problem = Problem.make s1 ~num_buses:2 ~total_width:16 in
  match Heuristics.greedy problem ~widths:[| 15; 1 |] with
  | None -> Alcotest.fail "greedy should succeed"
  | Some start ->
      let better = Heuristics.improve problem start in
      Alcotest.(check bool) "no regression" true
        (better.Heuristics.test_time <= start.Heuristics.test_time);
      let e = Cost.evaluate problem better.Heuristics.architecture in
      Alcotest.(check bool) "still feasible" true e.Cost.feasible

let test_solve_deterministic () =
  let problem = Problem.make s1 ~num_buses:3 ~total_width:18 in
  match (Heuristics.solve ~seed:7 problem, Heuristics.solve ~seed:7 problem) with
  | Some a, Some b ->
      Alcotest.(check int) "same seed, same value" a.Heuristics.test_time
        b.Heuristics.test_time
  | _ -> Alcotest.fail "heuristic should find something"

let prop_heuristic_bounded_by_optimum =
  QCheck.Test.make
    ~name:"heuristic is feasible and no better than the optimum" ~count:60
    Gen.spec_arbitrary (fun spec ->
      let problem = Gen.problem_of_spec spec in
      let optimum =
        match (Exact.solve problem).Exact.solution with
        | Some (_, t) -> Some t
        | None -> None
      in
      match (Heuristics.solve problem, optimum) with
      | None, _ -> true (* heuristic may fail on constrained instances *)
      | Some _, None -> false (* cannot beat an infeasible instance *)
      | Some h, Some opt ->
          let e = Cost.evaluate problem h.Heuristics.architecture in
          e.Cost.feasible
          && e.Cost.test_time = h.Heuristics.test_time
          && h.Heuristics.test_time >= opt)

let prop_heuristic_often_optimal_unconstrained =
  (* Not a guarantee, but on tiny unconstrained instances with generous
     restarts the gap must close; this guards against silent regressions
     that would make the baseline useless. *)
  QCheck.Test.make ~name:"heuristic within 30% on tiny instances" ~count:40
    Gen.spec_arbitrary (fun spec ->
      let spec = { spec with Gen.num_cores = min spec.Gen.num_cores 4 } in
      let problem = Gen.problem_of_spec ~constrained:false spec in
      match
        ((Exact.solve problem).Exact.solution, Heuristics.solve ~restarts:16 problem)
      with
      | Some (_, opt), Some h ->
          float_of_int h.Heuristics.test_time <= 1.3 *. float_of_int opt
      | _, _ -> false)

(* Reference local search: the full re-evaluation {!Heuristics.improve}
   replaced. Every pass rebuilds the clustering, and every candidate is
   a fresh architecture checked by {!Cost.evaluate}. The incremental
   search must follow the same trajectory. *)
let reference_improve problem (start : Heuristics.outcome) =
  let improve_once (current : Heuristics.outcome) =
    match Clustering.build problem with
    | Error _ -> (current, false)
    | Ok clustering ->
        let arch = current.Heuristics.architecture in
        let nb = Architecture.num_buses arch in
        let widths = Array.copy arch.Architecture.widths in
        let m = Clustering.num_clusters clustering in
        let cluster_bus =
          Array.init m (fun c ->
              match clustering.Clustering.members.(c) with
              | core :: _ -> arch.Architecture.assignment.(core)
              | [] -> 0)
        in
        let rebuild () =
          Architecture.make ~widths
            ~assignment:(Clustering.expand clustering cluster_bus)
        in
        let best = ref current.Heuristics.test_time in
        let improved = ref false in
        let try_current () =
          let e = Cost.evaluate problem (rebuild ()) in
          if e.Cost.feasible && e.Cost.test_time < !best then begin
            best := e.Cost.test_time;
            improved := true;
            true
          end
          else false
        in
        for c = 0 to m - 1 do
          let original = cluster_bus.(c) in
          for b = 0 to nb - 1 do
            if b <> original && not !improved then begin
              cluster_bus.(c) <- b;
              if not (try_current ()) then cluster_bus.(c) <- original
            end
          done
        done;
        if not !improved then
          for c1 = 0 to m - 1 do
            for c2 = c1 + 1 to m - 1 do
              if (not !improved) && cluster_bus.(c1) <> cluster_bus.(c2)
              then begin
                let b1 = cluster_bus.(c1) and b2 = cluster_bus.(c2) in
                cluster_bus.(c1) <- b2;
                cluster_bus.(c2) <- b1;
                if not (try_current ()) then begin
                  cluster_bus.(c1) <- b1;
                  cluster_bus.(c2) <- b2
                end
              end
            done
          done;
        if not !improved then
          for src = 0 to nb - 1 do
            for dst = 0 to nb - 1 do
              if (not !improved) && src <> dst && widths.(src) > 1 then begin
                widths.(src) <- widths.(src) - 1;
                widths.(dst) <- widths.(dst) + 1;
                if not (try_current ()) then begin
                  widths.(src) <- widths.(src) + 1;
                  widths.(dst) <- widths.(dst) - 1
                end
              end
            done
          done;
        if !improved then
          ({ Heuristics.architecture = rebuild (); test_time = !best }, true)
        else (current, false)
  in
  let rec loop current =
    let next, changed = improve_once current in
    if changed then loop next else current
  in
  loop start

(* A random width vector: [total] split into [parts] positive parts. *)
let random_widths state ~total ~parts =
  let widths = Array.make parts 1 in
  for _ = 1 to total - parts do
    let b = Random.State.int state parts in
    widths.(b) <- widths.(b) + 1
  done;
  widths

let prop_improve_matches_reference =
  QCheck.Test.make
    ~name:"incremental improve equals full re-evaluation" ~count:200
    (QCheck.pair Gen.spec_arbitrary (QCheck.int_bound 1_000_000))
    (fun (spec, width_seed) ->
      (* The spec's own instance, and a wider one from the same seed so
         that swaps and transfers have room to matter. *)
      let wide =
        Gen.spec_of_seed ~min_cores:8 ~max_cores:16 ~seed:spec.Gen.seed ()
      in
      let state = Random.State.make [| width_seed |] in
      List.for_all
        (fun problem ->
          let widths =
            random_widths state ~total:(Problem.total_width problem)
              ~parts:(Problem.num_buses problem)
          in
          match Heuristics.greedy problem ~widths with
          | None -> true
          | Some start ->
              let got = Heuristics.improve problem start
              and want = reference_improve problem start in
              got.Heuristics.test_time = want.Heuristics.test_time
              && got.Heuristics.architecture.Architecture.widths
                 = want.Heuristics.architecture.Architecture.widths
              && got.Heuristics.architecture.Architecture.assignment
                 = want.Heuristics.architecture.Architecture.assignment)
        [ Gen.problem_of_spec spec;
          Gen.problem_of_spec ~constrained:false spec;
          Gen.problem_of_spec wide ])

let suite =
  [ Alcotest.test_case "greedy feasible" `Quick test_greedy_feasible;
    Alcotest.test_case "greedy respects exclusions" `Quick
      test_greedy_respects_exclusions;
    Alcotest.test_case "improve never worsens" `Quick
      test_improve_never_worsens;
    Alcotest.test_case "solve deterministic" `Quick test_solve_deterministic;
    QCheck_alcotest.to_alcotest prop_heuristic_bounded_by_optimum;
    QCheck_alcotest.to_alcotest prop_heuristic_often_optimal_unconstrained;
    QCheck_alcotest.to_alcotest prop_improve_matches_reference ]
