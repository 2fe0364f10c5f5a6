module Problem = Soctam_core.Problem
module Exact = Soctam_core.Exact
module Dp_assign = Soctam_core.Dp_assign
module Cost = Soctam_core.Cost
module Architecture = Soctam_core.Architecture
module Benchmarks = Soctam_soc.Benchmarks

let test_partitions_known () =
  Alcotest.(check (list (list int)))
    "8 into 3"
    [ [ 6; 1; 1 ]; [ 5; 2; 1 ]; [ 4; 3; 1 ]; [ 4; 2; 2 ]; [ 3; 3; 2 ] ]
    (List.sort compare (Exact.width_partitions ~total:8 ~parts:3)
    |> List.rev);
  Alcotest.(check int) "1 partition for parts=1" 1
    (List.length (Exact.width_partitions ~total:7 ~parts:1));
  Alcotest.check_raises "total < parts"
    (Invalid_argument "Exact.width_partitions: total < parts") (fun () ->
      ignore (Exact.width_partitions ~total:2 ~parts:3))

let prop_partitions_well_formed =
  QCheck.Test.make ~name:"width partitions are valid and distinct"
    ~count:100
    QCheck.(pair (int_range 1 24) (int_range 1 5))
    (fun (total, parts) ->
      QCheck.assume (total >= parts);
      let ps = Exact.width_partitions ~total ~parts in
      List.length (List.sort_uniq compare ps) = List.length ps
      && List.for_all
           (fun p ->
             List.length p = parts
             && List.fold_left ( + ) 0 p = total
             && List.for_all (fun w -> w >= 1) p
             && List.sort (fun a b -> compare b a) p = p)
           ps)

let prop_partition_count_matches_recurrence =
  (* p(total, parts) with minimum part 1 equals the classic partition
     recurrence. *)
  let rec count total parts cap =
    if parts = 0 then if total = 0 then 1 else 0
    else if total < parts then 0
    else begin
      let acc = ref 0 in
      for first = min cap (total - parts + 1) downto 1 do
        acc := !acc + count (total - first) (parts - 1) first
      done;
      !acc
    end
  in
  QCheck.Test.make ~name:"partition count matches recurrence" ~count:60
    QCheck.(pair (int_range 1 20) (int_range 1 4))
    (fun (total, parts) ->
      QCheck.assume (total >= parts);
      List.length (Exact.width_partitions ~total ~parts)
      = count total parts total)

(* Reference: enumerate all compositions (ordered width vectors) and brute
   force each; exactly what Exact claims to optimize, without symmetry. *)
let reference_optimum problem =
  let nb = Problem.num_buses problem in
  let w = Problem.total_width problem in
  let best = ref None in
  let rec compositions prefix remaining parts =
    if parts = 1 then begin
      let widths = Array.of_list (List.rev (remaining :: prefix)) in
      match Dp_assign.brute_force problem ~widths with
      | Some { Dp_assign.test_time; _ } ->
          (match !best with
          | Some t when t <= test_time -> ()
          | Some _ | None -> best := Some test_time)
      | None -> ()
    end
    else
      for first = 1 to remaining - parts + 1 do
        compositions (first :: prefix) (remaining - first) (parts - 1)
      done
  in
  compositions [] w nb;
  !best

let prop_matches_reference =
  QCheck.Test.make ~name:"exact solver matches composition brute force"
    ~count:50 Gen.spec_arbitrary (fun spec ->
      let problem = Gen.problem_of_spec spec in
      let { Exact.solution; _ } = Exact.solve problem in
      let reference = reference_optimum problem in
      match (solution, reference) with
      | None, None -> true
      | Some (_, t), Some t' -> t = t'
      | Some _, None | None, Some _ -> false)

let prop_solution_verified =
  QCheck.Test.make ~name:"exact solutions pass the verifier" ~count:50
    Gen.spec_arbitrary (fun spec ->
      let problem = Gen.problem_of_spec spec in
      let { Exact.solution; _ } = Exact.solve problem in
      match solution with
      | None -> true
      | Some (arch, t) -> (
          match Soctam_core.Verify.check problem arch ~claimed_time:t with
          | Ok () -> true
          | Error _ -> false))

let test_monotone_in_width () =
  let s1 = Benchmarks.s1 () in
  let optimum w =
    let p = Problem.make s1 ~num_buses:2 ~total_width:w in
    match (Exact.solve p).Exact.solution with
    | Some (_, t) -> t
    | None -> Alcotest.fail "feasible"
  in
  let previous = ref max_int in
  List.iter
    (fun w ->
      let t = optimum w in
      Alcotest.(check bool)
        (Printf.sprintf "T(%d) <= T(%d-4)" w w)
        true (t <= !previous);
      previous := t)
    [ 8; 12; 16; 20; 24 ]

let test_monotone_in_buses () =
  let s1 = Benchmarks.s1 () in
  let optimum nb =
    let p = Problem.make s1 ~num_buses:nb ~total_width:16 in
    match (Exact.solve p).Exact.solution with
    | Some (_, t) -> t
    | None -> Alcotest.fail "feasible"
  in
  (* More buses on the same budget may trade width for parallelism either
     way; but one bus is never strictly better than the best split that
     includes the one-bus shape... it is only guaranteed that nb buses
     can emulate nb-1 when a width-0 bus were allowed, which it is not.
     We therefore check a weaker, always-true property: the optimum with
     2 buses at width W+1 is at least as good as 1 bus at width W. *)
  let p1 =
    Problem.make s1 ~num_buses:1 ~total_width:16 |> Exact.solve
  in
  let p2 =
    Problem.make s1 ~num_buses:2 ~total_width:17 |> Exact.solve
  in
  match (p1.Exact.solution, p2.Exact.solution) with
  | Some (_, t1), Some (_, t2) ->
      Alcotest.(check bool) "extra bus with extra wire helps" true (t2 <= t1);
      ignore (optimum 2)
  | _ -> Alcotest.fail "feasible"

let test_stats_populated () =
  let s1 = Benchmarks.s1 () in
  let p = Problem.make s1 ~num_buses:2 ~total_width:12 in
  let r = Exact.solve p in
  Alcotest.(check int) "partitions of 12 into 2" 6 r.Exact.stats.Exact.partitions;
  Alcotest.(check bool) "nodes counted" true (r.Exact.stats.Exact.nodes > 0)

(* The enumerator's hooks, on an instance with many partitions. *)
let hooks_problem () =
  Problem.make (Benchmarks.s1 ()) ~num_buses:3 ~total_width:20

let test_should_stop_incomplete () =
  let problem = hooks_problem () in
  let full = Exact.solve problem in
  Alcotest.(check bool) "unhooked run completes" true full.Exact.complete;
  let k = 3 in
  Alcotest.(check bool) "more than k partitions" true
    (full.Exact.stats.Exact.partitions > k);
  let polls = ref 0 in
  let r =
    Exact.solve
      ~should_stop:(fun () ->
        incr polls;
        !polls > k)
      problem
  in
  Alcotest.(check bool) "stopped run is incomplete" false r.Exact.complete;
  Alcotest.(check int) "k partitions searched" k
    r.Exact.stats.Exact.partitions

let test_bound_keeps_architecture () =
  let problem = hooks_problem () in
  match (Exact.solve problem).Exact.solution with
  | None -> Alcotest.fail "feasible"
  | Some (arch, t) -> (
      let bounded =
        Exact.solve ~upper_bound:(fun () -> Some (t + 1)) problem
      in
      Alcotest.(check bool) "bounded run completes" true
        bounded.Exact.complete;
      match bounded.Exact.solution with
      | Some (arch', t') ->
          Alcotest.(check int) "same time" t t';
          Alcotest.(check bool) "same architecture" true (arch = arch')
      | None -> Alcotest.fail "bound of optimum + 1 lost the optimum")

let test_report_improves () =
  let problem = hooks_problem () in
  let seen = ref [] in
  let r = Exact.solve ~report:(fun (_, t) -> seen := t :: !seen) problem in
  let times = List.rev !seen in
  Alcotest.(check bool) "something reported" true (times <> []);
  let rec strictly_decreasing = function
    | a :: (b :: _ as rest) -> b < a && strictly_decreasing rest
    | [ _ ] | [] -> true
  in
  Alcotest.(check bool) "strictly improving" true (strictly_decreasing times);
  Alcotest.(check (option int)) "last report is the answer"
    (Option.map snd r.Exact.solution)
    (List.nth_opt times (List.length times - 1))

let suite =
  [ Alcotest.test_case "known partitions" `Quick test_partitions_known;
    Alcotest.test_case "monotone in width" `Quick test_monotone_in_width;
    Alcotest.test_case "extra bus helps" `Quick test_monotone_in_buses;
    Alcotest.test_case "stats populated" `Quick test_stats_populated;
    Alcotest.test_case "should_stop leaves it incomplete" `Quick
      test_should_stop_incomplete;
    Alcotest.test_case "bound keeps the architecture" `Quick
      test_bound_keeps_architecture;
    Alcotest.test_case "report sees improvements" `Quick
      test_report_improves;
    QCheck_alcotest.to_alcotest prop_partitions_well_formed;
    QCheck_alcotest.to_alcotest prop_partition_count_matches_recurrence;
    QCheck_alcotest.to_alcotest prop_matches_reference;
    QCheck_alcotest.to_alcotest prop_solution_verified ]
