type outcome = { assignment : int array; test_time : int }
type stats = { nodes : int }

let dp_cluster_limit = 20

(* ---- Bitmask subset DP for two buses. ----
   [mask] is the set of clusters on bus 0; tables are filled in one
   imperative pass using the lowest-set-bit recurrence. *)
let dp_two_bus problem clustering widths ~upper_bound nodes =
  let m = Clustering.num_clusters clustering in
  let time b =
    Array.init m (fun c ->
        Clustering.time clustering problem ~cluster:c ~width:widths.(b))
  in
  let time0 = time 0 and time1 = time 1 in
  let size = 1 lsl m in
  let load0 = Array.make size 0 in
  let load1 = Array.make size 0 in
  for mask = 1 to size - 1 do
    let low = mask land -mask in
    let c =
      (* Index of the lowest set bit. *)
      let rec bit k v = if v = 1 then k else bit (k + 1) (v lsr 1) in
      bit 0 low
    in
    let rest = mask lxor low in
    load0.(mask) <- load0.(rest) + time0.(c);
    load1.(mask) <- load1.(rest) + time1.(c)
  done;
  let pair_masks =
    List.map
      (fun (a, b) -> (1 lsl a) lor (1 lsl b))
      clustering.Clustering.exclusions
  in
  let full = size - 1 in
  let best = ref upper_bound in
  let best_mask = ref (-1) in
  for mask = 0 to size - 1 do
    incr nodes;
    let valid =
      List.for_all
        (fun pm ->
          let inter = mask land pm in
          inter <> 0 && inter <> pm)
        pair_masks
    in
    if valid then begin
      let t = max load0.(mask) load1.(full lxor mask) in
      if t < !best then begin
        best := t;
        best_mask := mask
      end
    end
  done;
  if !best_mask < 0 then None
  else begin
    let cluster_assignment =
      Array.init m (fun c ->
          if !best_mask land (1 lsl c) <> 0 then 0 else 1)
    in
    Some
      { assignment = Clustering.expand clustering cluster_assignment;
        test_time = !best }
  end

(* ---- Depth-first branch and bound over clusters (general case). ---- *)
let branch_bound problem clustering widths ~upper_bound nodes =
  let m = Clustering.num_clusters clustering in
  let nb = Array.length widths in
  let time = Array.init m (fun c ->
      Array.init nb (fun b ->
          Clustering.time clustering problem ~cluster:c ~width:widths.(b)))
  in
  (* Clusters in decreasing order of their largest per-bus time. *)
  let order = Array.init m Fun.id in
  let key c = Array.fold_left max 0 time.(c) in
  Array.sort (fun a b -> compare (key b) (key a)) order;
  let min_time = Array.init m (fun c -> Array.fold_left min max_int time.(c)) in
  let remaining_min = Array.make (m + 1) 0 in
  for k = m - 1 downto 0 do
    remaining_min.(k) <- remaining_min.(k + 1) + min_time.(order.(k))
  done;
  let adj = Array.make m 0 in
  List.iter
    (fun (a, b) ->
      adj.(a) <- adj.(a) lor (1 lsl b);
      adj.(b) <- adj.(b) lor (1 lsl a))
    clustering.Clustering.exclusions;
  let loads = Array.make nb 0 in
  let bus_mask = Array.make nb 0 in
  let assign = Array.make m (-1) in
  let best = ref upper_bound in
  let best_assign = ref None in
  let rec explore k cur_max total_load =
    incr nodes;
    if k = m then begin
      if cur_max < !best then begin
        best := cur_max;
        best_assign := Some (Array.copy assign)
      end
    end
    else begin
      let bound =
        max cur_max
          ((total_load + remaining_min.(k) + nb - 1) / nb)
      in
      if bound < !best then begin
        let c = order.(k) in
        for b = 0 to nb - 1 do
          let symmetric_skip =
            bus_mask.(b) = 0
            &&
            let rec earlier_empty b' =
              b' < b
              && ((bus_mask.(b') = 0 && widths.(b') = widths.(b))
                 || earlier_empty (b' + 1))
            in
            earlier_empty 0
          in
          if
            (not symmetric_skip)
            && bus_mask.(b) land adj.(c) = 0
            && loads.(b) + time.(c).(b) < !best
          then begin
            loads.(b) <- loads.(b) + time.(c).(b);
            bus_mask.(b) <- bus_mask.(b) lor (1 lsl c);
            assign.(c) <- b;
            explore (k + 1)
              (max cur_max loads.(b))
              (total_load + time.(c).(b));
            assign.(c) <- -1;
            bus_mask.(b) <- bus_mask.(b) land lnot (1 lsl c);
            loads.(b) <- loads.(b) - time.(c).(b)
          end
        done
      end
    end
  in
  explore 0 0 0;
  match !best_assign with
  | None -> None
  | Some cluster_assignment ->
      Some
        { assignment = Clustering.expand clustering cluster_assignment;
          test_time = !best }

let solve_with_stats ?(upper_bound = max_int) problem ~widths =
  if Array.length widths <> Problem.num_buses problem then
    invalid_arg "Dp_assign.solve: widths/bus-count mismatch";
  let nodes = ref 0 in
  let result =
    match Clustering.build problem with
    | Error _ -> None
    | Ok clustering ->
        let m = Clustering.num_clusters clustering in
        if
          Array.length widths = 2
          && m <= dp_cluster_limit
          && m <= 62
        then dp_two_bus problem clustering widths ~upper_bound nodes
        else if m <= 62 then
          branch_bound problem clustering widths ~upper_bound nodes
        else invalid_arg "Dp_assign.solve: more than 62 clusters"
  in
  (result, { nodes = !nodes })

let solve ?upper_bound problem ~widths =
  fst (solve_with_stats ?upper_bound problem ~widths)

let brute_force problem ~widths =
  let n = Problem.num_cores problem in
  let nb = Array.length widths in
  if Array.length widths <> Problem.num_buses problem then
    invalid_arg "Dp_assign.brute_force: widths/bus-count mismatch";
  let constraints = Problem.constraints problem in
  let assign = Array.make n 0 in
  let best = ref max_int in
  let best_assign = ref None in
  let feasible () =
    List.for_all
      (fun (a, b) -> assign.(a) <> assign.(b))
      constraints.Problem.exclusion_pairs
    && List.for_all
         (fun (a, b) -> assign.(a) = assign.(b))
         constraints.Problem.co_pairs
  in
  let evaluate () =
    let loads = Array.make nb 0 in
    for i = 0 to n - 1 do
      loads.(assign.(i)) <-
        loads.(assign.(i))
        + Problem.time problem ~core:i ~width:widths.(assign.(i))
    done;
    Array.fold_left max 0 loads
  in
  let rec loop i =
    if i = n then begin
      if feasible () then begin
        let t = evaluate () in
        if t < !best then begin
          best := t;
          best_assign := Some (Array.copy assign)
        end
      end
    end
    else
      for b = 0 to nb - 1 do
        assign.(i) <- b;
        loop (i + 1)
      done
  in
  loop 0;
  match !best_assign with
  | None -> None
  | Some assignment -> Some { assignment; test_time = !best }
