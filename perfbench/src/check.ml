(* The independent answer checker.

   Runs after the timed window, never inside it. Every claim a reply
   makes is re-derived from the request alone:
   - an architecture passes [Verify.check] (widths, pairs, recomputed
     test time) against its claimed test time;
   - an optimal test time equals a reference [Exact.solve] optimum,
     and an infeasible verdict matches an infeasible reference;
   - a packing passes [Pack.validate] under the request's power
     envelope, and its makespan is the row's test time and at least
     [Pack.lower_bound];
   - a cached reply equals the reply that populated the cache, except
     for the per-request fields. *)

module Json = Soctam_obs.Json
module Protocol = Soctam_service.Protocol
module Problem = Soctam_core.Problem
module Verify = Soctam_core.Verify
module Exact = Soctam_core.Exact
module Pack = Soctam_pack.Pack
module Sweep = Soctam_engine.Sweep
module Floorplan = Soctam_layout.Floorplan
module Layout_conflicts = Soctam_layout.Conflicts
module Power_conflicts = Soctam_power.Power_conflicts

let ( let* ) = Result.bind

let constraints soc ~d_max ~p_max =
  { Problem.exclusion_pairs =
      (match d_max with
      | None -> []
      | Some d ->
          Layout_conflicts.exclusion_pairs (Floorplan.place soc) ~d_max_mm:d);
    co_pairs =
      (match p_max with
      | None -> []
      | Some p -> Power_conflicts.co_assignment_pairs soc ~p_max_mw:p) }

(* The instance a solve request line describes, as the checker sees
   it: parsed from the very bytes that were sent. *)
let instance_of_line line =
  let* json = Json.parse line in
  let* req = Protocol.parse_request json in
  match req with
  | Protocol.Solve { instance; _ } -> Ok instance
  | _ -> Error "not a solve request"

let problem_of_instance (inst : Protocol.instance) =
  let* soc = Protocol.resolve_soc inst.Protocol.soc_spec in
  Ok
    ( Problem.make ~time_model:inst.time_model
        ~constraints:
          (constraints soc ~d_max:inst.d_max_mm ~p_max:inst.p_max_mw)
        soc ~num_buses:inst.num_buses ~total_width:inst.total_width,
      inst.p_max_mw )

(* The reference optimum: [Some t] or [None] for infeasible. *)
let reference problem = Option.map snd (Exact.solve problem).Exact.solution

(* Check one result row (the [json_of_row] schema) against its
   problem. [reference] is the exact optimum for a partition-model
   row; pack rows are checked against the envelope instead. *)
let check_row ?p_max ~reference problem row_json =
  let* row =
    try Sweep.row_of_json row_json with Invalid_argument m -> Error m
  in
  match (row.Sweep.solution, row.Sweep.packing) with
  | Some (arch, claimed), None -> (
      let* () =
        Result.map_error
          (fun m -> "verify: " ^ m)
          (Verify.check problem arch ~claimed_time:claimed)
      in
      match reference with
      | Some best when best = claimed -> Ok ()
      | Some best ->
          Error (Printf.sprintf "test time %d, exact optimum %d" claimed best)
      | None -> Error "feasible answer to an infeasible instance")
  | None, Some packing ->
      let* () =
        Result.map_error
          (fun m -> "pack: " ^ m)
          (Pack.validate ?p_max_mw:p_max problem packing)
      in
      let claimed =
        match Json.member "test_time" row_json with
        | Some (Json.Num t) -> int_of_float t
        | _ -> -1
      in
      let lb = Pack.lower_bound ?p_max_mw:p_max problem in
      if claimed <> packing.Pack.Rect_sched.makespan then
        Error
          (Printf.sprintf "test time %d, packing makespan %d" claimed
             packing.Pack.Rect_sched.makespan)
      else if claimed < lb then
        Error (Printf.sprintf "makespan %d below lower bound %d" claimed lb)
      else Ok ()
  | None, None -> (
      match reference with
      | None -> Ok ()
      | Some best ->
          Error (Printf.sprintf "infeasible verdict, exact optimum %d" best))
  | Some _, Some _ -> Error "row carries both an architecture and a packing"

(* Fields that legitimately differ between a cached reply and the reply
   that populated the cache: the request's own id, its timing and trace
   id, and the cache provenance. *)
let per_request_fields = [ "id"; "elapsed_ms"; "trace_id"; "cached"; "source" ]

let strip = function
  | Json.Obj fields ->
      Json.Obj
        (List.filter (fun (k, _) -> not (List.mem k per_request_fields)) fields)
  | j -> j

let same_answer a b = strip a = strip b

(* Outcome of one request, as the run's counters see it. *)
type verdict =
  | Good
  | Failed of string  (** error, refusal, non-optimal or missing *)
  | Rejected of string  (** the checker disproved the answer *)

let verdict_name = function
  | Good -> "good"
  | Failed m -> "failed: " ^ m
  | Rejected m -> "rejected: " ^ m

(* A solve reply against its request. [reference] gives the exact
   optimum of the request's problem; [populated_by] is the reply that
   filled the cache for this request body, when one is known.

   [verified] remembers answers already proven for a request body
   ([key]): a repeat of a proven answer — the normal case for cache
   hits — is accepted without re-deriving the problem. *)
let check_solve_reply ~reference:ref_of ?populated_by ?verified ~key ~request
    reply_line =
  match reply_line with
  | None -> Failed "no reply"
  | Some line -> (
      match Json.parse line with
      | Error m -> Rejected ("unparsable reply: " ^ m)
      | Ok reply -> (
          match Json.member "ok" reply with
          | Some (Json.Bool true) -> (
              let rows =
                match Json.member "result" reply with
                | Some result -> (
                    match Json.member "rows" result with
                    | Some (Json.Arr rows) -> rows
                    | _ -> [])
                | None -> []
              in
              let optimal r = Json.member "optimal" r = Some (Json.Bool true) in
              let cached = Json.member "cached" reply = Some (Json.Bool true) in
              let memo_key = key ^ "\n" ^ Json.to_string (strip reply) in
              let proven () =
                match verified with
                | Some tbl -> Hashtbl.mem tbl memo_key
                | None -> false
              in
              match rows with
              | [ row ] when optimal row -> (
                  match populated_by with
                  | Some first when cached && not (same_answer reply first) ->
                      Rejected "hit differs from the reply that populated it"
                  | _ when proven () -> Good
                  | _ -> (
                      match
                        let* inst = instance_of_line request in
                        problem_of_instance inst
                      with
                      | Error m -> Rejected ("request: " ^ m)
                      | Ok (problem, p_max) -> (
                          match
                            check_row ?p_max ~reference:(ref_of problem)
                              problem row
                          with
                          | Error m -> Rejected m
                          | Ok () ->
                              Option.iter
                                (fun tbl -> Hashtbl.replace tbl memo_key ())
                                verified;
                              Good)))
              | [ _ ] -> Failed "not optimal"
              | _ -> Rejected "expected exactly one row")
          | _ ->
              let code =
                match Json.member "error" reply with
                | Some e -> (
                    match Json.member "code" e with
                    | Some (Json.Str c) -> c
                    | _ -> "?")
                | None -> "?"
              in
              Failed ("error reply " ^ code)))
