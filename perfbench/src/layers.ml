(* The traced run: per-layer metrics.

   After the untraced socket run (whose client latencies and [stats]
   reply it reuses), the workload's own request lines are replayed
   in-process, once through [Service.handle_line] and once layer by
   layer through each module's public functions, with a span recorded
   around every call. Nothing is probed inside the program: the spans
   live here, around the calls into each layer.

   A layer a workload never calls reports 0 for its metrics on that
   workload (no calls, no time). *)

module Json = Soctam_obs.Json
module Clock = Soctam_obs.Clock
module Log = Soctam_obs.Log
module Soc = Soctam_soc.Soc
module Memo = Soctam_soc.Memo
module Problem = Soctam_core.Problem
module Exact = Soctam_core.Exact
module Ilp_formulation = Soctam_core.Ilp_formulation
module Presolve = Soctam_ilp.Presolve
module Pack = Soctam_pack.Pack
module Pool = Soctam_engine.Pool
module Sweep = Soctam_engine.Sweep
module Race = Soctam_engine.Race
module Store = Soctam_store.Store
module Protocol = Soctam_service.Protocol
module Service = Soctam_service.Service
module Canon = Soctam_service.Canon
module Lru = Soctam_service.Lru

(* ---- spans ---- *)

type span = { name : string; req : int; t0 : float; t1 : float }

let spans : span list ref = ref []
let recording = ref false

let span name req f =
  if !recording then begin
    let t0 = Clock.now_s () in
    let r = f () in
    spans := { name; req; t0; t1 = Clock.now_s () } :: !spans;
    r
  end
  else f ()

(* Durations (s) of every span called [name]. *)
let durations name =
  List.filter_map
    (fun s -> if s.name = name then Some (s.t1 -. s.t0) else None)
    !spans

let mean_us name =
  match durations name with [] -> 0.0 | xs -> Stats.mean xs *. 1e6

let mean_ms name =
  match durations name with [] -> 0.0 | xs -> Stats.mean xs *. 1e3

let total_s name = Stats.sum (durations name)

(* Chrome trace-event JSON (load it at ui.perfetto.dev); one track per
   replayed request. *)
let write_chrome_trace path =
  let origin =
    List.fold_left (fun m s -> Float.min m s.t0) infinity !spans
  in
  let ev s =
    Json.Obj
      [ ("name", Json.Str s.name); ("ph", Json.Str "X");
        ("ts", Json.Num ((s.t0 -. origin) *. 1e6));
        ("dur", Json.Num ((s.t1 -. s.t0) *. 1e6)); ("pid", Json.int 1);
        ("tid", Json.int s.req) ]
  in
  Out_channel.with_open_text path (fun oc ->
      output_string oc
        (Json.to_string (Json.Obj [ ("traceEvents", Json.Arr (List.rev_map ev !spans)) ])))

(* Cost of recording one span, from a tight loop of empty spans with
   recording on against the same loop with it off. *)
let span_cost_s () =
  let n = 100_000 in
  let loop () =
    let t0 = Clock.now_s () in
    for i = 1 to n do
      span "calibrate" i ignore
    done;
    Clock.now_s () -. t0
  in
  let saved = !spans and was = !recording in
  recording := false;
  let off = loop () in
  recording := true;
  let on = loop () in
  recording := was;
  spans := saved;
  Float.max 0.0 ((on -. off) /. float_of_int n)

(* Run [replay] with spans off, then on, keeping the spans of the
   second pass. Returns the share of the untraced pass's wall time that
   recording adds: spans recorded times the cost of one span, over the
   untraced wall time. Differencing the two passes' wall times instead
   would mostly measure run-to-run noise. *)
let traced replay =
  spans := [];
  recording := false;
  let t0 = Clock.now_s () in
  replay ();
  let off = Clock.now_s () -. t0 in
  recording := true;
  replay ();
  recording := false;
  float_of_int (List.length !spans) *. span_cost_s () /. off

(* ---- the service stack, layer by layer ---- *)

(* Mirrors the daemon's per-request path for a solve line: parse,
   resolve, derive constraints, canonicalize, LRU, store, solve on a
   miss, encode, log. Store records and log events have the daemon's
   shape. Returns the rows, the tier that served them and the solver. *)
let replay_service_line ~lru ~store ~log i line =
  let json = span "json.parse" i (fun () -> Result.get_ok (Json.parse line)) in
  let req =
    span "protocol.parse" i (fun () ->
        ignore (Protocol.trace_id_of json);
        Result.get_ok (Protocol.parse_request json))
  in
  let inst =
    match req with
    | Protocol.Solve { instance; _ } -> instance
    | _ -> invalid_arg "not a solve line"
  in
  let soc =
    span "protocol.resolve_soc" i (fun () ->
        Result.get_ok (Protocol.resolve_soc inst.Protocol.soc_spec))
  in
  let constraints =
    span "constraints.derive" i (fun () ->
        Check.constraints soc ~d_max:inst.d_max_mm ~p_max:inst.p_max_mw)
  in
  let solver =
    match inst.solver with
    | Protocol.Race -> Sweep.Race
    | _ -> Sweep.Exact
  in
  let canon =
    span "canon.key" i (fun () ->
        Canon.of_instance ~soc ~time_model:inst.time_model ~constraints
          ~solver:(Sweep.solver_name solver) ~num_buses:inst.num_buses
          ~total_width:inst.total_width ())
  in
  let rows, source =
    match span "lru.find" i (fun () -> Lru.find lru canon.Canon.key) with
    | Some rows -> (rows, "lru")
    | None -> (
        match span "store.find" i (fun () -> Store.find store canon.Canon.key) with
        | Some doc ->
            let rows =
              match Json.member "rows" doc with
              | Some (Json.Arr rs) ->
                  List.map (fun r -> Result.get_ok (Sweep.row_of_json r)) rs
              | _ -> []
            in
            span "lru.put" i (fun () -> Lru.put lru canon.Canon.key rows);
            (rows, "store")
        | None ->
            let memo =
              span "memo.build" i (fun () ->
                  Memo.build ~model:inst.time_model soc
                    ~max_width:inst.total_width)
            in
            let cell =
              { Sweep.soc; num_buses = inst.num_buses;
                total_width = inst.total_width; time_model = inst.time_model;
                constraints; solver }
            in
            let row =
              span
                (if solver = Sweep.Race then "race.solve" else "exact.solve")
                i
                (fun () -> Sweep.solve_one ~memo cell)
            in
            let rows = [ row ] in
            let doc =
              Json.Obj
                [ ("solver", Json.Str (Protocol.solver_name inst.solver));
                  ("optimal", Json.Bool true);
                  ("rows", Json.Arr (List.map Sweep.json_of_row rows)) ]
            in
            span "store.add" i (fun () -> Store.add store canon.Canon.key doc);
            span "lru.put" i (fun () -> Lru.put lru canon.Canon.key rows);
            (rows, "solve"))
  in
  let reply =
    Protocol.ok_reply ~id:(Protocol.id_of json) ~cached:(source <> "solve")
      ~source ~elapsed_ms:0.1
      (Json.Obj
         [ ("soc", Json.Str (Soc.name soc));
           ("solver", Json.Str (Protocol.solver_name inst.solver));
           ("num_buses", Json.int inst.num_buses);
           ("rows", Json.Arr (List.map Sweep.json_of_row rows));
           ("totals", Sweep.json_of_totals (Sweep.totals rows)) ])
  in
  ignore (span "json.encode" i (fun () -> Json.to_string reply));
  span "log.event" i (fun () ->
      Log.event log
        [ ("trace_id", Json.Str (Printf.sprintf "bench-%d" i));
          ("op", Json.Str "solve"); ("id", Json.int i);
          ("soc", Json.Str (Soc.name soc));
          ("solver", Json.Str (Protocol.solver_name inst.solver));
          ("digest", Json.Str canon.Canon.digest);
          ("cached", Json.Bool (source <> "solve"));
          ("source", Json.Str source); ("optimal", Json.Bool true);
          ("queue_wait_ms", Json.Num 0.01); ("verdict", Json.Str "ok");
          ("duration_ms", Json.Num 0.1) ]);
  (rows, source, inst.solver)

(* The layers under [Service.handle_line] whose time it covers. *)
let service_layers =
  [ "json.parse"; "protocol.parse"; "protocol.resolve_soc";
    "constraints.derive"; "canon.key"; "lru.find"; "store.find"; "lru.put";
    "memo.build"; "race.solve"; "exact.solve"; "store.add"; "json.encode";
    "log.event" ]

let stat_num path json =
  List.fold_left
    (fun acc k -> Option.bind acc (Json.member k))
    (Some json) path
  |> function
  | Some (Json.Num x) -> x
  | _ -> 0.0

let ratio a b = if a +. b = 0.0 then 0.0 else a /. (a +. b)

(* Median time of three recovery scans of the store in [dir]. *)
let store_open_ms dir =
  Stats.median
    (List.init 3 (fun _ ->
         let t0 = Clock.now_s () in
         let s = Store.open_store dir in
         let dt = (Clock.now_s () -. t0) *. 1e3 in
         Store.close s;
         dt))

let store_bytes_per_record dir =
  let s = Store.open_store dir in
  let st = Store.stats s in
  Store.close s;
  if st.Store.live = 0 then 0.0
  else float_of_int st.Store.bytes /. float_of_int st.Store.live

let engines = List.map Race.engine_name Race.default_engines

(* Cold-race lines replayed in-process: a fixed count, so the replay's
   counters repeat exactly for a seed. Each costs a race, a second
   race with spans on, and an exact reference. *)
let cold_replay = 60

(* Per-layer metrics of a daemon workload, replaying the request lines
   [indices] of its socket run. [jobs] mirrors the daemon's [--jobs];
   [store_dir] is the daemon's store after its run. With [fresh_store]
   the replays start from empty stores (every line a miss, as in
   cold-race); otherwise they read the daemon's preloaded store. *)
let service_metrics env (o : E2e.outcome) ~indices ~jobs ~fresh_store
    ~store_dir =
  let work name = Filename.concat env.E2e.work name in
  let lines = List.map (fun i -> (i, o.E2e.stream i)) indices in
  let open_store tag =
    Store.open_store (if fresh_store then work tag else store_dir)
  in
  (* 1. The whole handler, in-process, on the same lines. *)
  let handle_store = open_store "inproc-store" in
  let hlog =
    Log.create (Log.File { path = work "inproc.log"; max_bytes = 1 lsl 30 })
  in
  let handle_ms, svc_stats =
    Pool.with_pool ~num_domains:jobs (fun pool ->
        let svc =
          Service.create ~cache_capacity:Gen.daemon_cache ~log:hlog
            ~store:handle_store ~pool ()
        in
        let times =
          List.map
            (fun (i, line) ->
              let t0 = Clock.now_s () in
              ignore (Service.handle_line svc line);
              (i, (Clock.now_s () -. t0) *. 1e3))
            lines
        in
        (times, Service.stats_json svc))
  in
  Log.close hlog;
  Store.close handle_store;
  (* 2. Layer by layer, spans off and then on. *)
  let race_rows = ref [] in
  let replay () =
    race_rows := [];
    let store =
      open_store (if !recording then "layer-store-on" else "layer-store-off")
    in
    let log =
      Log.create (Log.File { path = work "layer.log"; max_bytes = 1 lsl 30 })
    in
    let lru = Lru.create ~capacity:Gen.daemon_cache () in
    List.iter
      (fun (i, line) ->
        match replay_service_line ~lru ~store ~log i line with
        | rows, "solve", Protocol.Race -> race_rows := rows @ !race_rows
        | _ -> ())
      lines;
    Log.close log;
    Store.close store
  in
  let overhead = traced replay in
  (* 3. The exact solver on the distinct instances replayed (the
     checker's reference), and the race's cost relative to it. *)
  recording := true;
  let seen = Hashtbl.create 256 and dp_nodes = ref 0 and race_exact = ref 0.0 in
  List.iter
    (fun (i, line) ->
      match Check.instance_of_line line with
      | Ok inst
        when Hashtbl.length seen < 200 && not (Hashtbl.mem seen (Gen.body inst))
        ->
          Hashtbl.add seen (Gen.body inst) ();
          let problem, _ = Result.get_ok (Check.problem_of_instance inst) in
          let t0 = Clock.now_s () in
          let r = span "exact.reference" i (fun () -> Exact.solve problem) in
          if inst.Protocol.solver = Protocol.Race then
            race_exact := !race_exact +. (Clock.now_s () -. t0);
          dp_nodes := !dp_nodes + r.Exact.stats.Exact.nodes
      | _ -> ())
    lines;
  recording := false;
  write_chrome_trace (work "trace.json");
  (* transport: client latency minus in-process handling, request by
     request; over the timed window when the replay covers it. *)
  let window_start = o.E2e.records.(0).Drive.due +. E2e.warm_s in
  let diffs =
    List.filter_map
      (fun (i, h) ->
        let r = o.E2e.records.(i) in
        if r.Drive.reply <> None && (fresh_store || r.Drive.due >= window_start)
        then Some (Drive.latency_ms r -. h)
        else None)
      handle_ms
  in
  let handle_all = List.map snd handle_ms in
  (* Per request: the share of the in-process handling time that the
     layer spans of the same line do not cover; the median over the
     lines. *)
  let covered = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if List.mem s.name service_layers then
        Hashtbl.replace covered s.req
          (Option.value ~default:0.0 (Hashtbl.find_opt covered s.req)
          +. (s.t1 -. s.t0)))
    !spans;
  let unattributed =
    List.map
      (fun (i, h) ->
        1.0
        -. (Option.value ~default:0.0 (Hashtbl.find_opt covered i) *. 1e3 /. h))
      handle_ms
  in
  let qw = Option.value ~default:Json.Null o.E2e.daemon_stats in
  let lru_hits = stat_num [ "cache"; "hits" ] svc_stats
  and lru_misses = stat_num [ "cache"; "misses" ] svc_stats in
  let st_hits = stat_num [ "store"; "hits" ] svc_stats
  and st_misses = stat_num [ "store"; "misses" ] svc_stats in
  let races = !race_rows in
  let nraces = float_of_int (List.length races) in
  let won e =
    if races = [] then 0.0
    else
      float_of_int
        (List.length (List.filter (fun r -> r.Sweep.winner = Some e) races))
      /. nraces
  in
  [ ("server.transport_ms_p50", Stats.median diffs);
    ("server.transport_ms_p99", Stats.quantile diffs 0.99);
    ("service.handle_us_p50", Stats.median handle_all *. 1e3);
    ("service.unattributed_share", Stats.median unattributed);
    ("json.parse_us", mean_us "json.parse");
    ("json.encode_us", mean_us "json.encode");
    ("protocol.parse_us", mean_us "protocol.parse");
    ("protocol.resolve_soc_us", mean_us "protocol.resolve_soc");
    ("constraints.derive_us", mean_us "constraints.derive");
    ("canon.key_us", mean_us "canon.key");
    ("lru.find_us", mean_us "lru.find");
    ("lru.put_us", mean_us "lru.put");
    ("lru.hit_ratio", ratio lru_hits lru_misses);
    ("lru.evictions", stat_num [ "cache"; "evictions" ] svc_stats);
    ("store.find_us", mean_us "store.find");
    ("store.add_us", mean_us "store.add");
    ("store.hit_ratio", ratio st_hits st_misses);
    ("store.bytes_per_record", store_bytes_per_record store_dir);
    ("store.open_ms", store_open_ms store_dir);
    ( "pool.queue_wait_us_p50",
      stat_num [ "latency"; "queue_wait"; "p50_ms" ] qw *. 1e3 );
    ( "pool.queue_wait_us_p99",
      stat_num [ "latency"; "queue_wait"; "p99_ms" ] qw *. 1e3 );
    ("log.event_us", mean_us "log.event");
    ("memo.build_ms", mean_ms "memo.build");
    ("race.solve_ms", mean_ms "race.solve");
    ( "race.overhead_ratio",
      if !race_exact > 0.0 then total_s "race.solve" /. !race_exact else 0.0 );
    ( "race.cancelled_nodes",
      float_of_int
        (List.fold_left (fun n r -> n + r.Sweep.cancelled_nodes) 0 races) );
    ("exact.solve_ms", mean_ms "exact.reference");
    ("dp.nodes", float_of_int !dp_nodes);
    ("trace.overhead_share", overhead) ]
  @ List.map (fun e -> ("race.winner_share." ^ e, won e)) engines

(* Per-layer metrics of the paper sweep: the grid's cells replayed
   in-process through memo, exact reference, MILP build, presolve and
   solve, and the packer. *)
let sweep_metrics env (o : E2e.outcome) =
  let order = Gen.paper_order ~seed:env.E2e.seed in
  let ilp = Array.make 7 0 and pack_nodes = ref 0 and dp_nodes = ref 0 in
  let replay () =
    Array.fill ilp 0 7 0;
    pack_nodes := 0;
    dp_nodes := 0;
    Array.iteri
      (fun j (job : Gen.sweep_job) ->
        let soc =
          Result.get_ok (Protocol.resolve_soc (Protocol.Named job.Gen.soc))
        in
        let constraints =
          span "constraints.derive" j (fun () ->
              Check.constraints soc ~d_max:job.Gen.d_max ~p_max:job.Gen.p_max)
        in
        List.iter
          (fun w ->
            let memo =
              span "memo.build" j (fun () -> Memo.build soc ~max_width:w)
            in
            let problem =
              Problem.make ~memo ~constraints soc ~num_buses:job.Gen.num_buses
                ~total_width:w
            in
            let r = span "exact.reference" j (fun () -> Exact.solve problem) in
            dp_nodes := !dp_nodes + r.Exact.stats.Exact.nodes;
            if job.Gen.solver = "ilp" then begin
              let model =
                span "ilp.build" j (fun () ->
                    let m, _, _, _ = Ilp_formulation.build ~cuts:true problem in
                    m)
              in
              ignore
                (span "ilp.presolve" j (fun () -> Presolve.reduce model));
              let r =
                span "ilp.solve" j (fun () -> Ilp_formulation.solve problem)
              in
              let s = r.Ilp_formulation.stats in
              List.iteri
                (fun k v -> ilp.(k) <- ilp.(k) + v)
                [ s.Ilp_formulation.bb_nodes; s.lp_pivots; s.warm_starts;
                  s.cold_solves; s.refactorizations; s.cuts_added;
                  s.presolve_fixed ]
            end
            else
              let r =
                span "pack.solve" j (fun () ->
                    Pack.solve ?p_max_mw:job.Gen.p_max problem)
              in
              pack_nodes := !pack_nodes + r.Pack.nodes)
          job.Gen.widths)
      order
  in
  let overhead = traced replay in
  write_chrome_trace (Filename.concat env.E2e.work "trace.json");
  let f = float_of_int in
  let idle =
    match List.assoc_opt "pool_idle_share" o.E2e.report with
    | Some (Json.Num x) -> x
    | _ -> 0.0
  in
  [ ("constraints.derive_us", mean_us "constraints.derive");
    ("pool.idle_share", idle);
    ("memo.build_ms", mean_ms "memo.build");
    ("exact.solve_ms", mean_ms "exact.reference");
    ("dp.nodes", f !dp_nodes);
    ("ilp.build_ms", mean_ms "ilp.build");
    ("ilp.presolve_ms", mean_ms "ilp.presolve");
    ("ilp.solve_ms", mean_ms "ilp.solve");
    ("ilp.bb_nodes", f ilp.(0));
    ("ilp.lp_pivots", f ilp.(1));
    ( "ilp.pivots_per_node",
      if ilp.(0) = 0 then 0.0 else f ilp.(1) /. f ilp.(0) );
    ("ilp.warm_starts", f ilp.(2));
    ("ilp.cold_solves", f ilp.(3));
    ("ilp.refactorizations", f ilp.(4));
    ("ilp.cuts_added", f ilp.(5));
    ("ilp.presolve_fixed", f ilp.(6));
    ("pack.solve_ms", mean_ms "pack.solve");
    ("pack.nodes", f !pack_nodes);
    ("trace.overhead_share", overhead) ]

(* Every per-layer metric with its unit, in report order. A metric a
   workload does not produce is reported as 0: that workload never
   calls the layer. *)
let catalogue =
  [ ("server.transport_ms_p50", "ms"); ("server.transport_ms_p99", "ms");
    ("service.handle_us_p50", "us"); ("service.unattributed_share", "share");
    ("json.parse_us", "us"); ("json.encode_us", "us");
    ("protocol.parse_us", "us"); ("protocol.resolve_soc_us", "us");
    ("constraints.derive_us", "us"); ("canon.key_us", "us");
    ("lru.find_us", "us"); ("lru.put_us", "us"); ("lru.hit_ratio", "share");
    ("lru.evictions", "count"); ("store.find_us", "us");
    ("store.add_us", "us"); ("store.hit_ratio", "share");
    ("store.bytes_per_record", "bytes"); ("store.open_ms", "ms");
    ("pool.queue_wait_us_p50", "us"); ("pool.queue_wait_us_p99", "us");
    ("pool.idle_share", "share"); ("log.event_us", "us");
    ("memo.build_ms", "ms"); ("race.solve_ms", "ms");
    ("race.overhead_ratio", "ratio") ]
  @ List.map (fun e -> ("race.winner_share." ^ e, "share")) engines
  @ [ ("race.cancelled_nodes", "count"); ("exact.solve_ms", "ms");
      ("dp.nodes", "count"); ("ilp.build_ms", "ms");
      ("ilp.presolve_ms", "ms"); ("ilp.presolve_fixed", "count");
      ("ilp.cuts_added", "count"); ("ilp.solve_ms", "ms");
      ("ilp.bb_nodes", "count"); ("ilp.lp_pivots", "count");
      ("ilp.pivots_per_node", "ratio"); ("ilp.warm_starts", "count");
      ("ilp.cold_solves", "count"); ("ilp.refactorizations", "count");
      ("pack.solve_ms", "ms"); ("pack.nodes", "count");
      ("trace.overhead_share", "share") ]

let run env workload (o : E2e.outcome) =
  let store_dir = Filename.concat env.E2e.work "store" in
  let measured =
    match workload with
    | Gen.Hot_hits ->
        service_metrics env o
          ~indices:(List.init (Array.length o.E2e.records) Fun.id)
          ~jobs:1 ~fresh_store:false ~store_dir
    | Gen.Cold_race ->
        service_metrics env o
          ~indices:(List.init (min cold_replay (Array.length o.E2e.records)) Fun.id)
          ~jobs:1 ~fresh_store:true ~store_dir
    | Gen.Paper_sweep -> sweep_metrics env o
  in
  List.map
    (fun (name, unit) ->
      (name, Option.value ~default:0.0 (List.assoc_opt name measured), unit))
    catalogue
