type outcome = { architecture : Architecture.t; test_time : int }

let cluster_setup problem =
  match Clustering.build problem with
  | Error _ -> None
  | Ok clustering -> Some clustering

let excluded clustering c1 c2 =
  List.exists
    (fun (a, b) -> (a = c1 && b = c2) || (a = c2 && b = c1))
    clustering.Clustering.exclusions

let greedy_clusters problem clustering widths =
  let m = Clustering.num_clusters clustering in
  let nb = Array.length widths in
  let time c b =
    Clustering.time clustering problem ~cluster:c ~width:widths.(b)
  in
  let order = Array.init m Fun.id in
  let key c =
    let acc = ref 0 in
    for b = 0 to nb - 1 do
      acc := max !acc (time c b)
    done;
    !acc
  in
  Array.sort (fun a b -> compare (key b) (key a)) order;
  let loads = Array.make nb 0 in
  let buses = Array.make nb [] in
  let assign = Array.make m (-1) in
  let place c =
    let best = ref (-1) in
    let best_load = ref max_int in
    for b = 0 to nb - 1 do
      let clash = List.exists (fun c' -> excluded clustering c c') buses.(b) in
      if not clash then begin
        let load = loads.(b) + time c b in
        if load < !best_load then begin
          best_load := load;
          best := b
        end
      end
    done;
    if !best < 0 then false
    else begin
      loads.(!best) <- !best_load;
      buses.(!best) <- c :: buses.(!best);
      assign.(c) <- !best;
      true
    end
  in
  let ok = Array.for_all place order in
  if ok then Some assign else None

let evaluate problem arch =
  let e = Cost.evaluate problem arch in
  if e.Cost.feasible then Some e.Cost.test_time else None

let greedy problem ~widths =
  match cluster_setup problem with
  | None -> None
  | Some clustering -> (
      match greedy_clusters problem clustering widths with
      | None -> None
      | Some cluster_assignment ->
          let assignment = Clustering.expand clustering cluster_assignment in
          let architecture = Architecture.make ~widths ~assignment in
          (match evaluate problem architecture with
          | Some test_time -> Some { architecture; test_time }
          | None -> None))

(* First-improvement local search over clusters. The state — per-bus
   loads, the number of co-located exclusion pairs and a per-width
   column of cluster times — is updated in place by each candidate and
   undone on rejection, so a candidate costs O(buses) (plus O(clusters)
   for a width transfer) instead of an architecture rebuild and a full
   re-evaluation. Moves are tried in the order cluster moves, cluster
   swaps, unit width transfers; the first strictly better feasible
   candidate is kept and the scan restarts, until a local optimum. *)
let improve problem (start : outcome) =
  let arch = start.architecture in
  let nb = Architecture.num_buses arch in
  match cluster_setup problem with
  | None -> start
  | Some _
    when nb <> Problem.num_buses problem
         || Architecture.total_width arch <> Problem.total_width problem ->
      (* No rearrangement of this architecture is feasible. *)
      start
  | Some clustering ->
      let m = Clustering.num_clusters clustering in
      let widths = Array.copy arch.Architecture.widths in
      let cluster_bus =
        Array.init m (fun c ->
            match clustering.Clustering.members.(c) with
            | core :: _ -> arch.Architecture.assignment.(core)
            | [] -> 0)
      in
      let columns = Array.make (Problem.total_width problem + 1) [||] in
      let column w =
        if Array.length columns.(w) = 0 then
          columns.(w) <-
            Array.init m (fun c ->
                Clustering.time clustering problem ~cluster:c ~width:w);
        columns.(w)
      in
      let time c b = (column widths.(b)).(c) in
      let neighbours = Array.make m [] in
      List.iter
        (fun (a, b) ->
          neighbours.(a) <- b :: neighbours.(a);
          neighbours.(b) <- a :: neighbours.(b))
        clustering.Clustering.exclusions;
      let on_bus c b =
        List.fold_left
          (fun n c' -> if cluster_bus.(c') = b then n + 1 else n)
          0 neighbours.(c)
      in
      let loads = Array.make nb 0 in
      let bus_load b =
        let acc = ref 0 in
        Array.iteri
          (fun c b' -> if b' = b then acc := !acc + time c b)
          cluster_bus;
        !acc
      in
      for b = 0 to nb - 1 do
        loads.(b) <- bus_load b
      done;
      let clashes =
        ref
          (List.length
             (List.filter
                (fun (a, b) -> cluster_bus.(a) = cluster_bus.(b))
                clustering.Clustering.exclusions))
      in
      let move c b =
        let src = cluster_bus.(c) in
        clashes := !clashes - on_bus c src;
        loads.(src) <- loads.(src) - time c src;
        cluster_bus.(c) <- b;
        clashes := !clashes + on_bus c b;
        loads.(b) <- loads.(b) + time c b
      in
      let shift src dst =
        widths.(src) <- widths.(src) - 1;
        widths.(dst) <- widths.(dst) + 1;
        loads.(src) <- bus_load src;
        loads.(dst) <- bus_load dst
      in
      let best = ref start.test_time in
      let accepted () =
        !clashes = 0
        &&
        let t = Array.fold_left max 0 loads in
        if t < !best then begin
          best := t;
          true
        end
        else false
      in
      (* Each [try_*] applies one candidate, keeps it if it improves and
         undoes it otherwise. *)
      let try_move c b =
        let original = cluster_bus.(c) in
        move c b;
        accepted () || (move c original; false)
      in
      let try_swap c1 c2 =
        let b1 = cluster_bus.(c1) and b2 = cluster_bus.(c2) in
        move c1 b2;
        move c2 b1;
        accepted () || (move c2 b2; move c1 b1; false)
      in
      let try_shift src dst =
        shift src dst;
        accepted () || (shift dst src; false)
      in
      let rec exists_in lo hi f =
        lo < hi && (f lo || exists_in (lo + 1) hi f)
      in
      let improve_once () =
        exists_in 0 m (fun c ->
            let original = cluster_bus.(c) in
            exists_in 0 nb (fun b -> b <> original && try_move c b))
        || exists_in 0 m (fun c1 ->
               exists_in (c1 + 1) m (fun c2 ->
                   cluster_bus.(c1) <> cluster_bus.(c2) && try_swap c1 c2))
        || exists_in 0 nb (fun src ->
               exists_in 0 nb (fun dst ->
                   src <> dst && widths.(src) > 1 && try_shift src dst))
      in
      if not (improve_once ()) then start
      else begin
        while improve_once () do
          ()
        done;
        { architecture =
            Architecture.make ~widths
              ~assignment:(Clustering.expand clustering cluster_bus);
          test_time = !best }
      end

let balanced_partition ~total ~parts =
  let base = total / parts and extra = total mod parts in
  Array.init parts (fun b -> if b < extra then base + 1 else base)

let random_partition state ~total ~parts =
  (* parts-1 distinct cut points in [1, total-1]. *)
  let widths = Array.make parts 1 in
  let remaining = total - parts in
  for _ = 1 to remaining do
    let b = Random.State.int state parts in
    widths.(b) <- widths.(b) + 1
  done;
  widths

let solve ?(seed = 1) ?(restarts = 8) ?(should_stop = fun () -> false)
    ?(report = fun _ -> ()) problem =
 Soctam_obs.Obs.span "heuristic.solve" @@ fun () ->
  let nb = Problem.num_buses problem in
  let w = Problem.total_width problem in
  let state = Random.State.make [| seed; 0x7a11 |] in
  let starts =
    balanced_partition ~total:w ~parts:nb
    :: List.init restarts (fun _ -> random_partition state ~total:w ~parts:nb)
  in
  let consider best widths =
    if should_stop () then best
    else
      match greedy problem ~widths with
      | None -> best
      | Some outcome -> (
          let polished = improve problem outcome in
          match best with
          | Some b when b.test_time <= polished.test_time -> best
          | Some _ | None ->
              report polished;
              Some polished)
  in
  List.fold_left consider None starts
