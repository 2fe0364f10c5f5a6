(* Tests of the benchmark itself: its streams, its checker and its
   latency accounting. *)

module Json = Soctam_obs.Json
module Protocol = Soctam_service.Protocol
module Problem = Soctam_core.Problem
module Architecture = Soctam_core.Architecture
module Sweep = Soctam_engine.Sweep
module Gen = Perfbench.Gen
module Check = Perfbench.Check
module Drive = Perfbench.Drive

let hot_stream seed count =
  let bodies = Gen.hot_bodies (Gen.hot_set ~seed) in
  (Gen.hot_draws ~seed ~count, Gen.hot_lines ~bodies (Gen.hot_draws ~seed ~count))

let same_seed_same_bytes () =
  let _, a = hot_stream 7 300 and _, b = hot_stream 7 300 in
  Alcotest.(check (array string)) "hot-hits" a b;
  let _, c = hot_stream 8 300 in
  Alcotest.(check bool) "another seed differs" false (a = c);
  let cold seed = List.init 40 (Gen.cold_line ~seed) in
  Alcotest.(check (list string)) "cold-race" (cold 7) (cold 7);
  Alcotest.(check bool) "another seed differs" false (cold 7 = cold 8);
  let order seed = Array.map Gen.job_name (Gen.paper_order ~seed) in
  Alcotest.(check (array string)) "paper-sweep" (order 7) (order 7)

(* The store tier is only exercised when the keys requested outnumber
   the LRU. Replaying ten seconds of the stream through an LRU of the
   daemon's size shows both: more distinct keys than entries, and a
   steady share of lookups that miss it (and go to the store). *)
let working_set_exceeds_cache () =
  let per_s = int_of_float Gen.hot_rate in
  let draws, _ = hot_stream 3 (10 * per_s) in
  let keys = Hashtbl.create 1024 in
  Array.iter (fun d -> Hashtbl.replace keys d ()) draws;
  Alcotest.(check bool)
    (Printf.sprintf "%d distinct keys > 2 x cache %d" (Hashtbl.length keys)
       Gen.daemon_cache)
    true
    (Hashtbl.length keys > 2 * Gen.daemon_cache);
  let lru = Soctam_service.Lru.create ~capacity:Gen.daemon_cache () in
  let misses = ref 0 in
  Array.iteri
    (fun i (k, inline) ->
      let key = Printf.sprintf "%d/%b" k inline in
      match Soctam_service.Lru.find lru key with
      | Some () -> ()
      | None ->
          if i >= per_s then incr misses;
          Soctam_service.Lru.put lru key ())
    draws;
  let share = float_of_int !misses /. float_of_int (9 * per_s) in
  Alcotest.(check bool)
    (Printf.sprintf "%.1f%% of warm lookups miss the LRU" (100.0 *. share))
    true (share > 0.03)

let cold_lines_are_distinct () =
  let lines = List.init 200 (Gen.cold_line ~seed:5) in
  let bodies =
    List.map
      (fun l ->
        match Check.instance_of_line l with
        | Ok inst -> Gen.body inst
        | Error m -> Alcotest.fail m)
      lines
  in
  Alcotest.(check int) "all distinct" 200
    (List.length (List.sort_uniq compare bodies))

(* An instance with a power co-assignment pair, its line, its problem
   and a correct reply. *)
let instance_with_co_pair () =
  let set = Gen.hot_set ~seed:11 in
  let inst, _ =
    Array.to_list set
    |> List.find (fun ((inst : Protocol.instance), _) ->
           match Check.problem_of_instance inst with
           | Ok (p, _) -> (Problem.constraints p).Problem.co_pairs <> []
           | Error _ -> false)
  in
  let line = Gen.with_id (Json.int 1) (Gen.body inst) in
  let problem, _ = Result.get_ok (Check.problem_of_instance inst) in
  let soc = Problem.soc problem in
  let row =
    Sweep.solve_one
      { Sweep.soc; num_buses = inst.num_buses; total_width = inst.total_width;
        time_model = inst.time_model; constraints = Problem.constraints problem;
        solver = Sweep.Exact }
  in
  (line, problem, row)

let reply_of_rows rows =
  Json.to_string
    (Protocol.ok_reply ~id:(Json.int 1) ~cached:false ~source:"solve"
       ~elapsed_ms:1.0
       (Json.Obj [ ("rows", Json.Arr (List.map Sweep.json_of_row rows)) ]))

let verdict line problem reply =
  Check.check_solve_reply
    ~reference:(fun _ -> Check.reference problem)
    ~key:"k" ~request:line (Some reply)

let is_rejected = function Check.Rejected _ -> true | _ -> false

let checker_accepts_a_correct_reply () =
  let line, problem, row = instance_with_co_pair () in
  Alcotest.(check string) "good" "good"
    (Check.verdict_name (verdict line problem (reply_of_rows [ row ])))

let checker_rejects_tampered_test_time () =
  let line, problem, row = instance_with_co_pair () in
  let arch, t = Option.get row.Sweep.solution in
  let tampered = { row with Sweep.solution = Some (arch, t - 1) } in
  Alcotest.(check bool) "rejected" true
    (is_rejected (verdict line problem (reply_of_rows [ tampered ])))

let checker_rejects_infeasible_assignment () =
  let line, problem, row = instance_with_co_pair () in
  let arch, t = Option.get row.Sweep.solution in
  let i, j = List.hd (Problem.constraints problem).Problem.co_pairs in
  let assignment = Array.copy arch.Architecture.assignment in
  (* Split the co-assignment pair across two buses. *)
  assignment.(j) <- (assignment.(i) + 1) mod Array.length arch.Architecture.widths;
  let broken =
    Architecture.make ~widths:arch.Architecture.widths ~assignment
  in
  let tampered = { row with Sweep.solution = Some (broken, t) } in
  match verdict line problem (reply_of_rows [ tampered ]) with
  | Check.Rejected m ->
      Alcotest.(check bool) ("verify rejects: " ^ m) true
        (String.length m >= 7 && String.sub m 0 7 = "verify:")
  | v -> Alcotest.fail (Check.verdict_name v)

let checker_rejects_a_changed_hit () =
  let line, problem, row = instance_with_co_pair () in
  let first = Result.get_ok (Json.parse (reply_of_rows [ row ])) in
  let hit =
    Json.to_string
      (Protocol.ok_reply ~id:(Json.int 2) ~cached:true ~source:"lru"
         ~elapsed_ms:0.1
         (Json.Obj
            [ ( "rows",
                Json.Arr
                  [ Sweep.json_of_row { row with Sweep.nodes = row.Sweep.nodes + 1 } ] ) ]))
  in
  Alcotest.(check bool) "rejected" true
    (is_rejected
       (Check.check_solve_reply
          ~reference:(fun _ -> Check.reference problem)
          ~populated_by:first ~key:"k" ~request:line (Some hit)))

let latency_from_due_time () =
  let r =
    { Drive.index = 0; due = 10.0; sent = 10.5; recv = 11.0; reply = Some "" }
  in
  Alcotest.(check (float 1e-9)) "latency from due" 1000.0 (Drive.latency_ms r);
  Alcotest.(check (float 1e-9)) "lateness" 500.0 (Drive.lateness_ms r)

(* A daemon stand-in that stalls 100 ms before its first reply: the
   requests queued behind the stall are charged for it, because their
   latency runs from their due time. *)
let open_loop_charges_a_stall () =
  let path = "perfbench-test.sock" in
  (try Sys.remove path with Sys_error _ -> ());
  let lfd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind lfd (Unix.ADDR_UNIX path);
  Unix.listen lfd 1;
  let server =
    Thread.create
      (fun () ->
        let fd, _ = Unix.accept lfd in
        let ic = Unix.in_channel_of_descr fd
        and oc = Unix.out_channel_of_descr fd in
        Thread.delay 0.1;
        (try
           while true do
             ignore (input_line ic);
             output_string oc "{}\n";
             flush oc
           done
         with End_of_file | Sys_error _ -> ());
        Unix.close fd)
      ()
  in
  let records =
    Drive.run ~paths:[ path ]
      ~mode:(Drive.Open { rate = 1000.0; count = 20 })
      ~drain_s:5.0
      (fun i -> string_of_int i ^ "\n")
  in
  Thread.join server;
  Unix.close lfd;
  Sys.remove path;
  Alcotest.(check int) "all answered" 20
    (Array.length
       (Array.of_list
          (List.filter (fun r -> r.Drive.reply <> None) (Array.to_list records))));
  Array.iteri
    (fun i r ->
      Alcotest.(check (float 1e-9))
        "due on schedule" (records.(0).Drive.due +. (float_of_int i /. 1000.0))
        r.Drive.due)
    records;
  let last = records.(19) in
  (* Due 19 ms after the first, answered after the 100 ms stall. *)
  Alcotest.(check bool)
    (Printf.sprintf "latency %.1f ms includes the stall" (Drive.latency_ms last))
    true
    (Drive.latency_ms last > 60.0)

let () =
  Alcotest.run "perfbench"
    [ ( "streams",
        [ Alcotest.test_case "same seed, same bytes" `Quick same_seed_same_bytes;
          Alcotest.test_case "hot-hits working set exceeds the cache" `Quick
            working_set_exceeds_cache;
          Alcotest.test_case "cold-race requests are distinct" `Quick
            cold_lines_are_distinct ] );
      ( "checker",
        [ Alcotest.test_case "accepts a correct reply" `Quick
            checker_accepts_a_correct_reply;
          Alcotest.test_case "rejects a tampered test time" `Quick
            checker_rejects_tampered_test_time;
          Alcotest.test_case "rejects an infeasible assignment" `Quick
            checker_rejects_infeasible_assignment;
          Alcotest.test_case "rejects a hit that differs from its first reply"
            `Quick checker_rejects_a_changed_hit ] );
      ( "latency",
        [ Alcotest.test_case "counted from the due time" `Quick
            latency_from_due_time;
          Alcotest.test_case "an open loop charges a stall to later requests"
            `Quick open_loop_charges_a_stall ] ) ]
