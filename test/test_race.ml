module Problem = Soctam_core.Problem
module Architecture = Soctam_core.Architecture
module Exact = Soctam_core.Exact
module Benchmarks = Soctam_soc.Benchmarks
module Rect_sched = Soctam_sched.Rect_sched
module Pool = Soctam_engine.Pool
module Race = Soctam_engine.Race
module Clock = Soctam_obs.Clock
module Obs = Soctam_obs.Obs
module Cgen = Soctam_check.Gen

(* The E8-style constrained workload: conflicts force real search, so
   the complete engines have work to do and the heuristics publish
   improvable incumbents. *)
let constrained_problem () =
  let soc = Benchmarks.s2 () in
  let constraints =
    { Problem.exclusion_pairs = [ (0, 1); (0, 2); (1, 2) ];
      co_pairs = [ (3, 4) ] }
  in
  Problem.make ~constraints soc ~num_buses:3 ~total_width:16

let race_with_jobs problem jobs =
  if jobs = 1 then Race.solve problem
  else
    Pool.with_pool ~num_domains:jobs (fun pool -> Race.solve ~pool problem)

let test_race_certifies_exact () =
  let problem = constrained_problem () in
  let exact = (Exact.solve problem).Exact.solution in
  let r = Race.solve problem in
  Alcotest.(check bool) "optimal" true r.Race.optimal;
  Alcotest.(check bool) "certificate issued" true
    (r.Race.certificate <> None);
  Alcotest.(check bool) "winner named" true (r.Race.winner <> None);
  match (exact, r.Race.solution) with
  | Some (_, t), Some (_, t') -> Alcotest.(check int) "race = exact" t t'
  | None, None -> ()
  | _ -> Alcotest.fail "feasibility mismatch against exact"

(* The certified answer is a pure function of the instance: identical
   architecture (not just test time) whichever engine wins the
   wall-clock race under any job count. *)
let test_race_deterministic_across_jobs () =
  let problem = constrained_problem () in
  let r1 = race_with_jobs problem 1 in
  Alcotest.(check bool) "jobs=1 optimal" true r1.Race.optimal;
  List.iter
    (fun jobs ->
      let r = race_with_jobs problem jobs in
      Alcotest.(check bool)
        (Printf.sprintf "jobs=%d optimal" jobs)
        true r.Race.optimal;
      match (r1.Race.solution, r.Race.solution) with
      | Some (a1, t1), Some (a, t) ->
          Alcotest.(check int) (Printf.sprintf "jobs=%d time" jobs) t1 t;
          Alcotest.(check (array int))
            (Printf.sprintf "jobs=%d widths" jobs)
            a1.Architecture.widths a.Architecture.widths;
          Alcotest.(check (array int))
            (Printf.sprintf "jobs=%d assignment" jobs)
            a1.Architecture.assignment a.Architecture.assignment
      | None, None -> ()
      | _ ->
          Alcotest.failf "jobs=%d feasibility differs from jobs=1" jobs)
    [ 2; 4 ]

(* The protocol's view of a race, whichever engine family ran it: the
   answer's test time and the verdict. *)
type verdict = {
  time : int option;
  optimal : bool;
  certificate : string option;
  incumbents : int;
}

(* Both families share one race protocol, so every protocol case runs
   against each: the partition race on the constrained workload, and
   the packing race on a small SOC (its exact search grows far faster). *)
let families =
  [ ( "partition",
      fun ~deadline_s ~on_event ->
        let r = Race.solve ?deadline_s ~on_event (constrained_problem ()) in
        { time = Option.map snd r.Race.solution;
          optimal = r.Race.optimal;
          certificate = r.Race.certificate;
          incumbents = r.Race.incumbents } );
    ( "pack",
      fun ~deadline_s ~on_event ->
        let soc = Benchmarks.random ~seed:5 ~num_cores:4 () in
        let problem = Problem.make soc ~num_buses:2 ~total_width:6 in
        let r = Race.solve_pack ?deadline_s ~on_event problem in
        { time = Option.map (fun p -> p.Rect_sched.makespan) r.Race.packing;
          optimal = r.Race.optimal;
          certificate = r.Race.certificate;
          incumbents = r.Race.incumbents } ) ]

(* Streamed incumbents are strictly improving, and the final solution
   is exactly the last streamed value — the certificate never reports
   something the stream did not announce. *)
let test_race_stream_monotone () =
  List.iter
    (fun (family, race) ->
      let label msg = Printf.sprintf "%s: %s" family msg in
      let events = ref [] in
      let r =
        race ~deadline_s:None ~on_event:(fun ev -> events := ev :: !events)
      in
      let events = List.rev !events in
      Alcotest.(check bool) (label "at least one incumbent streamed") true
        (events <> []);
      Alcotest.(check int) (label "incumbents counted") (List.length events)
        r.incumbents;
      let rec strictly_decreasing = function
        | a :: (b :: _ as rest) ->
            a.Race.test_time > b.Race.test_time && strictly_decreasing rest
        | _ -> true
      in
      Alcotest.(check bool) (label "strictly improving") true
        (strictly_decreasing events);
      match (r.time, List.rev events) with
      | Some t, last :: _ ->
          Alcotest.(check int) (label "final = last streamed")
            last.Race.test_time t
      | _ -> Alcotest.failf "%s: expected a feasible answer" family)
    families

(* Without a complete engine no certificate can exist, but the best
   heuristic incumbent is still returned — the anytime contract. *)
let test_race_incomplete_portfolio () =
  let problem = constrained_problem () in
  let r =
    Race.solve ~engines:[ Race.Pack; Race.Greedy; Race.Anneal ] problem
  in
  Alcotest.(check bool) "feasible incumbent" true (r.Race.solution <> None);
  Alcotest.(check bool) "winner attributed" true (r.Race.winner <> None);
  if r.Race.optimal then
    Alcotest.(check (option string))
      "only the bound can certify without a complete engine"
      (Some "bound") r.Race.certificate

let test_race_expired_deadline () =
  List.iter
    (fun (family, race) ->
      let label msg = Printf.sprintf "%s: %s" family msg in
      let r =
        race ~deadline_s:(Some (Clock.now_s () -. 1.0)) ~on_event:ignore
      in
      Alcotest.(check bool) (label "not optimal") false r.optimal;
      Alcotest.(check (option string)) (label "no certificate") None
        r.certificate;
      Alcotest.(check bool) (label "no answer (nothing ran)") true
        (r.time = None))
    families

let count_spans events name =
  List.length (List.filter (fun (e : Obs.event) -> e.Obs.name = name) events)

(* Race [problem] at [jobs] with tracing on; the result and its spans. *)
let traced_race ?engines problem jobs =
  Obs.enable ();
  let r =
    if jobs = 1 then Race.solve ?engines problem
    else
      Pool.with_pool ~num_domains:jobs (fun pool ->
          Race.solve ?engines ~pool problem)
  in
  Obs.disable ();
  (r, fst (Obs.drain ()))

let same_architecture (exact : Exact.result) (r : Race.result) =
  match (exact.Exact.solution, r.Race.solution) with
  | Some (a, t), Some (a', t') ->
      t = t'
      && a.Architecture.widths = a'.Architecture.widths
      && a.Architecture.assignment = a'.Architecture.assignment
  | None, None -> true
  | _ -> false

(* The race certifies the optimum, and its architecture is the
   unbounded exact answer, whichever engine certifies. A DP certificate
   is already that answer, so such a race never re-derives it, and
   Greedy and Anneal share one heuristic run. Without the DP the
   certified optimum is re-derived. *)
let prop_race_matches_exact =
  QCheck.Test.make ~name:"race certifies the exact optimum" ~count:25
    Gen.spec_arbitrary (fun spec ->
      let problem = Cgen.problem_of_spec spec in
      let exact = Exact.solve problem in
      List.for_all
        (fun jobs ->
          let r, events = traced_race problem jobs in
          let dp_ok =
            r.Race.certificate <> Some "dp"
            || count_spans events "race.finalize" = 0
               && count_spans events "heuristic.solve" = 1
          in
          let r', events' =
            traced_race ~engines:[ Race.Pack; Race.Greedy; Race.Ilp ] problem
              jobs
          in
          let finalized =
            r'.Race.solution = None || count_spans events' "race.finalize" = 1
          in
          r.Race.optimal && same_architecture exact r && dp_ok
          && r'.Race.optimal && same_architecture exact r' && finalized)
        [ 1; 2 ])

let suite =
  [ Alcotest.test_case "certifies the exact optimum" `Quick
      test_race_certifies_exact;
    Alcotest.test_case "identical across jobs in {1,2,4}" `Quick
      test_race_deterministic_across_jobs;
    Alcotest.test_case "streamed incumbents strictly improve" `Quick
      test_race_stream_monotone;
    Alcotest.test_case "heuristics-only race stays anytime" `Quick
      test_race_incomplete_portfolio;
    Alcotest.test_case "expired deadline yields a partial verdict" `Quick
      test_race_expired_deadline;
    QCheck_alcotest.to_alcotest prop_race_matches_exact ]
