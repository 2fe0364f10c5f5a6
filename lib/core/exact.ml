module Obs = Soctam_obs.Obs
module Clock = Soctam_obs.Clock

type stats = { partitions : int; nodes : int; elapsed_s : float }
type result = {
  solution : (Architecture.t * int) option;
  complete : bool;
  stats : stats;
}

let width_partitions ~total ~parts =
  if parts < 1 then invalid_arg "Exact.width_partitions: parts < 1";
  if total < parts then invalid_arg "Exact.width_partitions: total < parts";
  (* Non-increasing sequences; [cap] bounds the next part. *)
  let rec go total parts cap =
    if parts = 1 then if total <= cap then [ [ total ] ] else []
    else begin
      let upper = min cap (total - parts + 1) in
      let lower = (total + parts - 1) / parts in
      let acc = ref [] in
      for first = upper downto lower do
        List.iter
          (fun rest -> acc := (first :: rest) :: !acc)
          (go (total - first) (parts - 1) first)
      done;
      List.rev !acc
    end
  in
  go total parts total

let solve ?(should_stop = fun () -> false) ?(upper_bound = fun () -> None)
    ?(report = fun _ -> ()) problem =
 Obs.span "exact.solve" @@ fun () ->
  let start = Clock.now_s () in
  let best = ref None in
  let best_time = ref max_int in
  let nodes = ref 0 in
  let count = ref 0 in
  let try_partition widths_list =
    incr count;
    let widths = Array.of_list widths_list in
    let bound =
      Option.fold ~none:!best_time ~some:(min !best_time) (upper_bound ())
    in
    let outcome, s =
      Dp_assign.solve_with_stats ~upper_bound:bound problem ~widths
    in
    nodes := !nodes + s.Dp_assign.nodes;
    match outcome with
    | Some { Dp_assign.assignment; test_time } ->
        let found = (Architecture.make ~widths ~assignment, test_time) in
        best_time := test_time;
        best := Some found;
        report found
    | None -> ()
  in
  let rec enumerate = function
    | [] -> true
    | _ :: _ when should_stop () -> false
    | p :: rest ->
        try_partition p;
        enumerate rest
  in
  let complete =
    enumerate
      (width_partitions ~total:(Problem.total_width problem)
         ~parts:(Problem.num_buses problem))
  in
  Obs.incr ~n:!count "exact.partitions";
  (* [upper_bound] pruning is exclusive, so an unconstrained-feasible
     instance that never improves on [max_int] is genuinely infeasible. *)
  { solution = !best;
    complete;
    stats =
      { partitions = !count;
        nodes = !nodes;
        elapsed_s = Clock.elapsed_s ~since:start } }
