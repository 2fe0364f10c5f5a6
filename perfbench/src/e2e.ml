(* The untraced runs: each workload against a real [tamoptd] or
   [tamopt], measured from outside, answers checked after the timed
   window. *)

module Json = Soctam_obs.Json
module Clock = Soctam_obs.Clock
module Pool = Soctam_engine.Pool
module Sweep = Soctam_engine.Sweep
module Protocol = Soctam_service.Protocol
module Problem = Soctam_core.Problem

type env = {
  bin_dir : string;  (** where tamopt.exe and tamoptd.exe live *)
  work : string;  (** this run's scratch directory, inside the checkout *)
  seed : int;
  seconds : float;
  nproc : int;
}

type outcome = {
  metrics : (string * float * string) list;  (** name, value, unit *)
  attempted : int;
  failed : int;
  rejected : int;  (** answers the checker disproved *)
  report : (string * Json.t) list;  (** provenance and detail *)
  records : Drive.record array;
      (** every request of the socket run, warm-up included, by index *)
  stream : int -> string;  (** request line [i] of the socket run *)
  daemon_stats : Json.t option;  (** the [stats] reply after the run *)
}

let connections env = min Gen.connections env.nproc
let sockets env sock = List.init (connections env) (fun _ -> sock)
let tamopt env = Filename.concat env.bin_dir "tamopt.exe"
let tamoptd env = Filename.concat env.bin_dir "tamoptd.exe"
let path env name = Filename.concat env.work name

(* Warm-up before the timed window: the LRU fills and the first
   allocations settle. Its requests are checked but not timed. *)
let warm_s = 1.0

(* Set-up is measured this many times per run; the median is
   reported. *)
let setup_repeats = 9

let num x = Json.Num x
let jint = Json.int

(* (failed, rejected, the first few problems). *)
let verdict_counts verdicts =
  let note v examples =
    if List.length examples < 5 then Check.verdict_name v :: examples
    else examples
  in
  List.fold_left
    (fun (failed, rejected, examples) v ->
      match v with
      | Check.Good -> (failed, rejected, examples)
      | Check.Failed _ -> (failed + 1, rejected, note v examples)
      | Check.Rejected _ -> (failed, rejected + 1, note v examples))
    (0, 0, []) verdicts

(* Exact optima for a batch of problems, spread over the cores. *)
let references ~nproc problems =
  Pool.with_pool ~num_domains:nproc (fun pool ->
      Pool.map pool ~f:Check.reference problems)

let pct sorted q = Stats.quantile_sorted sorted q

(* Latency, throughput and lateness over the timed window. *)
let window_metrics ~window_start records =
  let timed =
    Array.to_list records |> List.filter (fun r -> r.Drive.due >= window_start)
  in
  let done_ = List.filter (fun r -> r.Drive.reply <> None) timed in
  let lat = Stats.sorted (List.map Drive.latency_ms done_) in
  let late = Stats.sorted (List.map Drive.lateness_ms timed) in
  let last_recv =
    List.fold_left (fun m r -> Float.max m r.Drive.recv) window_start done_
  in
  let first_due =
    List.fold_left (fun m r -> Float.min m r.Drive.due) infinity timed
  in
  let wall = last_recv -. first_due in
  ( [ ("latency_p50_ms", pct lat 0.5, "ms");
      ("latency_p99_ms", pct lat 0.99, "ms");
      ("throughput_rps", float_of_int (List.length done_) /. wall, "1/s");
      ("sweep_wall_s", wall, "s") ],
    [ ("latency_samples", jint (Array.length lat));
      ("samples_beyond_p99", jint (Array.length lat / 100));
      ("window_s", num wall);
      ( "generator_lateness_ms",
        Json.Obj
          [ ("p50", num (pct late 0.5)); ("p99", num (pct late 0.99));
            ("max", num (pct late 1.0)) ] ) ] )

let median_setup runs =
  let xs = List.map Proc.setup_s runs in
  (Stats.median xs, Json.Arr (List.map num xs))

(* Spawn the daemon [setup_repeats] times against the same state,
   stopping all but the last; the survivor serves the timed window. *)
let measured_start env ~log ~sock args =
  let rec go n acc =
    let d =
      Proc.start_daemon ~bin:(tamoptd env) ~log ~path:sock ~timeout_s:60.0
        args
    in
    if n = 1 then (d, List.rev (d :: acc))
    else begin
      Proc.stop_daemon d;
      go (n - 1) (d :: acc)
    end
  in
  go setup_repeats []

let finish_daemon d =
  let stats = try Proc.stats d with _ -> None in
  let rss = Proc.vm_hwm_kib d.Proc.pid in
  Proc.stop_daemon d;
  (stats, rss)

let daemon_outcome ~name ~args ~setups ~records ~stream ~window_start
    ~verdicts ~stats ~rss ~extra =
  let setup, setup_all = median_setup setups in
  let window, window_report = window_metrics ~window_start records in
  let failed, rejected, examples = verdict_counts verdicts in
  let attempted = List.length verdicts in
  let rss_mb = float_of_int (Option.value ~default:0 rss) /. 1024.0 in
  { metrics =
      window
      @ [ ("setup_s", setup, "s"); ("peak_rss_mb", rss_mb, "MB") ];
    attempted;
    failed;
    rejected;
    records;
    stream;
    daemon_stats = stats;
    report =
      [ ("workload", Json.Str name);
        ("daemon_flags", Json.Arr (List.map (fun a -> Json.Str a) args));
        ("setup_s_each", setup_all);
        ("error_rate", num (float_of_int failed /. float_of_int attempted));
        ("verify_failures", jint rejected);
        ("problems", Json.Arr (List.map (fun e -> Json.Str e) examples));
        ("daemon_stats", Option.value ~default:Json.Null stats) ]
      @ window_report @ extra }

(* ---- hot-hits ---- *)

let hot_hits env =
  let set = Gen.hot_set ~seed:env.seed in
  let bodies = Gen.hot_bodies set in
  let sock = path env "d.sock" and log = path env "daemon.out" in
  let store = path env "store" and reqlog = path env "requests.log" in
  let args =
    [ "--jobs"; "1"; "--cache"; string_of_int Gen.daemon_cache; "--store"; store;
      "--log"; reqlog ]
  in
  (* Populate the store with every request body once. *)
  let preload = Array.of_list (Gen.preload_lines bodies) in
  let d =
    Proc.start_daemon ~bin:(tamoptd env) ~log ~path:sock ~timeout_s:60.0
      [ "--jobs"; string_of_int env.nproc; "--cache";
        string_of_int Gen.daemon_cache; "--store"; store ]
  in
  let pre =
    Drive.run ~paths:(sockets env sock)
      ~mode:(Drive.Closed { until_s = infinity; count = Array.length preload })
      ~drain_s:120.0
      (fun i ->
        let _, _, l = preload.(i) in
        l ^ "\n")
  in
  Proc.stop_daemon d;
  (* One reference per request form: the inline form carries the SOC's
     floats as rendered on the wire, so it is its own instance. *)
  let refs =
    references ~nproc:env.nproc
      (Array.map
         (fun (_, _, line) ->
           match Check.instance_of_line line with
           | Ok inst -> fst (Result.get_ok (Check.problem_of_instance inst))
           | Error m -> failwith m)
         preload)
  in
  let ref_index = Hashtbl.create (Array.length preload) in
  Array.iteri (fun i (k, inline, _) -> Hashtbl.replace ref_index (k, inline) i) preload;
  let reference k inline _ = refs.(Hashtbl.find ref_index (k, inline)) in
  let populated = Hashtbl.create (2 * Gen.hot_instances) in
  let verified = Hashtbl.create (2 * Gen.hot_instances) in
  let pre_verdicts =
    Array.to_list
      (Array.mapi
         (fun i (k, inline, line) ->
           let reply = pre.(i).Drive.reply in
           Option.iter
             (fun r ->
               match Json.parse r with
               | Ok j -> Hashtbl.replace populated (k, inline) j
               | Error _ -> ())
             reply;
           Check.check_solve_reply ~reference:(reference k inline)
             ?populated_by:(Hashtbl.find_opt populated (k, false))
             ~verified ~key:(Printf.sprintf "%d/%b" k inline) ~request:line
             reply)
         preload)
  in
  (* Timed window. *)
  let d, setups = measured_start env ~log ~sock args in
  let count =
    int_of_float (Gen.hot_rate *. (warm_s +. env.seconds))
  in
  let draws = Gen.hot_draws ~seed:env.seed ~count in
  let lines = Gen.hot_lines ~bodies draws in
  let wire = Array.map (fun l -> l ^ "\n") lines in
  let records =
    Drive.run ~paths:(sockets env sock)
      ~mode:(Drive.Open { rate = Gen.hot_rate; count })
      ~drain_s:30.0
      (fun i -> wire.(i))
  in
  let stats, rss = finish_daemon d in
  let window_start = records.(0).Drive.due +. warm_s in
  let verdicts =
    Array.to_list
      (Array.mapi
         (fun i r ->
           let k, inline = draws.(i) in
           Check.check_solve_reply ~reference:(reference k inline)
             ?populated_by:(Hashtbl.find_opt populated (k, inline))
             ~verified ~key:(Printf.sprintf "%d/%b" k inline) ~request:lines.(i)
             r.Drive.reply)
         records)
  in
  let distinct = Hashtbl.create 1024 in
  Array.iter (fun (k, _) -> Hashtbl.replace distinct k ()) draws;
  daemon_outcome ~name:"hot-hits" ~args ~setups ~records
    ~stream:(fun i -> lines.(i)) ~window_start
    ~verdicts:(pre_verdicts @ verdicts) ~stats ~rss
    ~extra:
      [ ("mode", Json.Str "open loop");
        ("rate_rps", num Gen.hot_rate);
        ("connections", jint (connections env));
        ("instances", jint Gen.hot_instances);
        ("distinct_instances_requested", jint (Hashtbl.length distinct));
        ("inline_share", num Gen.hot_inline_share);
        ("zipf_exponent", num Gen.zipf_exponent);
        ("preload_requests", jint (Array.length preload)) ]

(* ---- cold-race ---- *)

(* One single-worker daemon per connection, up to one per core, each
   with its own store and log: a daemon with [--jobs 1] races the
   portfolio sequentially, so each request's work is a pure function of
   its instance. With one [--jobs nproc] daemon serving two connections
   on a 2-core host, the two races' engines competed for the same
   domains, and p50, p99 and throughput moved by 30-45% between runs of
   the same code. One such daemon alone still moved by 12-14%: the
   host's speed drifts per core, and from one core to the other
   independently, so a run that keeps every core busy averages over
   both. *)
let cold_race env =
  let shards = connections env in
  let shard k name = path env (Printf.sprintf "%s%d" name k) in
  let args k =
    [ "--jobs"; "1"; "--cache"; string_of_int Gen.daemon_cache; "--store";
      shard k "store"; "--log"; shard k "requests.log" ]
  in
  let start k =
    let log = shard k "daemon.out" and sock = shard k "d.sock" in
    if k = 0 then measured_start env ~log ~sock (args k)
    else
      ( Proc.start_daemon ~bin:(tamoptd env) ~log ~path:sock ~timeout_s:60.0
          (args k),
        [] )
  in
  let started = List.init shards start in
  let ds = List.map fst started and setups = snd (List.hd started) in
  let line = Gen.cold_line ~seed:env.seed in
  let largest rss =
    match List.filter_map Fun.id rss with
    | [] -> None
    | rs -> Some (List.fold_left max 0 rs)
  in
  let rss_at = ref None in
  let records =
    Drive.run
      ~at_reply:
        ( Gen.cold_rss_replies,
          fun () ->
            rss_at := largest (List.map (fun d -> Proc.vm_hwm_kib d.Proc.pid) ds)
        )
      ~paths:(List.map (fun d -> d.Proc.path) ds)
      ~mode:(Drive.Closed { until_s = warm_s +. env.seconds; count = max_int })
      ~drain_s:60.0
      (fun i -> line i ^ "\n")
  in
  let finished = List.map finish_daemon ds in
  let stats = fst (List.hd finished) in
  let rss_at_end = largest (List.map snd finished) in
  let rss = if !rss_at = None then rss_at_end else !rss_at in
  let window_start = records.(0).Drive.due +. warm_s in
  let problems =
    Array.map
      (fun r ->
        match Check.instance_of_line (line r.Drive.index) with
        | Ok inst -> (
            match Check.problem_of_instance inst with
            | Ok (p, _) -> Some p
            | Error _ -> None)
        | Error _ -> None)
      records
  in
  let refs =
    Pool.with_pool ~num_domains:env.nproc (fun pool ->
        Pool.map pool ~f:(Option.map Check.reference) problems)
  in
  let verdicts =
    Array.to_list
      (Array.mapi
         (fun i r ->
           let reference _ = Option.join refs.(i) in
           Check.check_solve_reply ~reference ~key:(string_of_int i)
             ~request:(line r.Drive.index) r.Drive.reply)
         records)
  in
  let hits =
    Array.fold_left
      (fun n r ->
        match r.Drive.reply with
        | Some l -> (
            match Json.parse l with
            | Ok j when Json.member "cached" j = Some (Json.Bool true) -> n + 1
            | _ -> n)
        | None -> n)
      0 records
  in
  daemon_outcome ~name:"cold-race" ~args:(args 0) ~setups ~records
    ~stream:line ~window_start ~verdicts ~stats ~rss
    ~extra:
      [ ("mode", Json.Str "closed loop");
        ("connections", jint shards);
        ( "peak_rss_at_replies",
          if !rss_at = None then Json.Null else jint Gen.cold_rss_replies );
        ( "peak_rss_mb_at_end",
          num (float_of_int (Option.value ~default:0 rss_at_end) /. 1024.0) );
        ( "shard_stats",
          Json.Arr
            (List.map (fun (st, _) -> Option.value ~default:Json.Null st) finished)
        );
        ("cache_hits_seen", jint hits) ]

(* ---- paper-sweep ---- *)

type sweep_run = {
  job : Gen.sweep_job;
  code : int;
  wall_s : float;
  maxrss_kib : int;
  rows : Json.t list option;
  cell_s : float;  (** sum of the rows' own [elapsed_s] *)
}

let run_sweep env ~log ~json_path job =
  (try Sys.remove json_path with Sys_error _ -> ());
  let code, wall_s, maxrss_kib =
    Proc.run_cli ~bin:(tamopt env) ~log
      (Gen.sweep_args job ~jobs:env.nproc ~json_path)
  in
  let rows =
    match In_channel.with_open_text json_path In_channel.input_all with
    | text -> (
        match Json.parse text with
        | Ok j -> (
            match Json.member "rows" j with
            | Some (Json.Arr rows) -> Some rows
            | _ -> None)
        | Error _ -> None)
    | exception Sys_error _ -> None
  in
  let cell_s =
    List.fold_left
      (fun acc r ->
        match Json.member "elapsed_s" r with
        | Some (Json.Num x) -> acc +. x
        | _ -> acc)
      0.0
      (Option.value ~default:[] rows)
  in
  { job; code; wall_s; maxrss_kib; rows; cell_s }

(* Results of one grid job compared across repetitions: everything but
   wall-clock fields and race attribution. *)
let same_rows a b =
  let parse rows =
    List.map (fun r -> Result.to_option (Sweep.row_of_json r)) rows
  in
  let a = parse a and b = parse b in
  List.for_all Option.is_some a
  && List.for_all Option.is_some b
  && Sweep.equal_rows (List.filter_map Fun.id a) (List.filter_map Fun.id b)

let check_job ~nproc (first : sweep_run) =
  match first.rows with
  | None -> [ Check.Failed "sweep wrote no rows" ]
  | Some rows ->
      let job = first.job in
      let soc =
        Result.get_ok (Protocol.resolve_soc (Protocol.Named job.Gen.soc))
      in
      let constraints =
        Check.constraints soc ~d_max:job.Gen.d_max ~p_max:job.Gen.p_max
      in
      let problems =
        Array.of_list
          (List.map
             (fun w ->
               Problem.make ~constraints soc ~num_buses:job.Gen.num_buses
                 ~total_width:w)
             job.Gen.widths)
      in
      let refs =
        if job.Gen.solver = "pack" then Array.map (fun _ -> None) problems
        else references ~nproc problems
      in
      if List.length rows <> Array.length problems then
        [ Check.Rejected "row count differs from the width list" ]
      else
        List.mapi
          (fun i row ->
            if Json.member "optimal" row <> Some (Json.Bool true) then
              Check.Failed "not optimal"
            else
              match
                Check.check_row ?p_max:job.Gen.p_max ~reference:refs.(i)
                  problems.(i) row
              with
              | Ok () -> Check.Good
              | Error m -> Check.Rejected (Gen.job_name job ^ ": " ^ m))
          rows

(* The paper-sweep's set-up: program start to exit on the smallest
   possible sweep, one trivial cell. *)
let sweep_setup env ~log =
  List.init setup_repeats (fun _ ->
      let _, wall, _ =
        Proc.run_cli ~bin:(tamopt env) ~log
          [ "sweep"; "--soc"; "s1"; "-b"; "2"; "--widths"; "2"; "--solver";
            "exact"; "--jobs"; string_of_int env.nproc ]
      in
      wall)

let paper_sweep env =
  let log = path env "sweep.out" in
  let json_path = path env "sweep.json" in
  let setups = sweep_setup env ~log in
  let order = Gen.paper_order ~seed:env.seed in
  let t0 = Clock.now_s () in
  let rec grids acc =
    let g0 = Clock.now_s () in
    let runs =
      Array.to_list (Array.map (run_sweep env ~log ~json_path) order)
    in
    let acc = (Clock.now_s () -. g0, runs) :: acc in
    if Clock.now_s () -. t0 < env.seconds then grids acc else List.rev acc
  in
  let reps = grids [] in
  let total_wall = Clock.now_s () -. t0 in
  let all_runs = List.concat_map snd reps in
  let first = snd (List.hd reps) in
  let verdicts =
    List.concat_map
      (fun (r : sweep_run) ->
        if r.code <> 0 then [ Check.Failed (Printf.sprintf "exit %d" r.code) ]
        else check_job ~nproc:env.nproc r)
      first
    @ List.concat_map
        (fun (_, runs) ->
          List.concat
            (List.map2
               (fun (a : sweep_run) (b : sweep_run) ->
                 let per_row v = List.map (fun _ -> v) a.job.Gen.widths in
                 match (a.rows, b.rows) with
                 | _ when b.code <> 0 ->
                     per_row (Check.Failed (Printf.sprintf "exit %d" b.code))
                 | _, None -> per_row (Check.Failed "sweep wrote no rows")
                 | Some ra, Some rb when same_rows ra rb -> per_row Check.Good
                 | _ ->
                     per_row
                       (Check.Rejected
                          (Gen.job_name b.job
                         ^ ": rows differ between repetitions")))
               first runs))
        (List.tl reps)
  in
  let failed, rejected, examples = verdict_counts verdicts in
  let lat = Stats.sorted (List.map (fun r -> r.wall_s *. 1000.0) all_runs) in
  let grid_walls = List.map fst reps in
  let cells =
    List.fold_left
      (fun n r -> n + List.length (Option.value ~default:[] r.rows))
      0 all_runs
  in
  let rss =
    List.fold_left (fun m r -> max m r.maxrss_kib) 0 all_runs
  in
  let busy = Stats.sum (List.map (fun r -> r.cell_s) all_runs) in
  let sweep_wall = Stats.sum (List.map (fun r -> r.wall_s) all_runs) in
  { metrics =
      [ ("latency_p50_ms", pct lat 0.5, "ms");
        ("latency_p99_ms", pct lat 0.99, "ms");
        ( "throughput_rps",
          float_of_int (List.length all_runs) /. total_wall,
          "1/s" );
        ("sweep_wall_s", Stats.median grid_walls, "s");
        ("setup_s", Stats.median setups, "s");
        ("peak_rss_mb", float_of_int rss /. 1024.0, "MB") ];
    attempted = List.length verdicts;
    failed;
    rejected;
    records = [||];
    stream = (fun _ -> "");
    daemon_stats = None;
    report =
      [ ("workload", Json.Str "paper-sweep");
        ("mode", Json.Str "batch");
        ( "grid",
          Json.Arr
            (Array.to_list
               (Array.map (fun j -> Json.Str (Gen.job_name j)) order)) );
        ("sweep_jobs", jint env.nproc);
        ("grids_run", jint (List.length reps));
        ("grid_wall_s_each", Json.Arr (List.map num grid_walls));
        ("cells_run", jint cells);
        ("latency_samples", jint (Array.length lat));
        ("setup_s_each", Json.Arr (List.map num setups));
        ("error_rate", num (float_of_int failed /. float_of_int (List.length verdicts)));
        ("verify_failures", jint rejected);
        ("problems", Json.Arr (List.map (fun e -> Json.Str e) examples));
        ( "pool_idle_share",
          num (1.0 -. (busy /. (sweep_wall *. float_of_int env.nproc))) ) ] }

let run env = function
  | Gen.Hot_hits -> hot_hits env
  | Gen.Cold_race -> cold_race env
  | Gen.Paper_sweep -> paper_sweep env
