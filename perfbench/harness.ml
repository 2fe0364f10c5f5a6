(* The benchmark harness: one workload, one seed, one run.

     harness.exe --workload NAME --seed N --seconds S --trace 0|1
                 --bin DIR --work DIR [--commit SHA]

   Prints a report (provenance and detail) and, as its last line, the
   result object {correct, attempted, failed, metrics}. Normally started
   by run.py, which builds the programs first. *)

module Json = Soctam_obs.Json
module Gen = Perfbench.Gen
module E2e = Perfbench.E2e
module Layers = Perfbench.Layers

let usage () =
  prerr_endline
    "usage: harness.exe --workload hot-hits|cold-race|paper-sweep --seed N \
     --seconds S --trace 0|1 --bin DIR --work DIR [--commit SHA]";
  exit 2

let () =
  (* The generator holds every request and reply of the run; a large
     minor heap and a lazier major collector keep its own pauses, which
     an open loop charges to the daemon as lateness, rare. *)
  Gc.set
    { (Gc.get ()) with Gc.minor_heap_size = 8 lsl 20; space_overhead = 400 };
  let args = List.tl (Array.to_list Sys.argv) in
  let rec parse acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        parse ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let opts = parse [] args in
  let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
  let workload =
    match Gen.workload_of_string (get "workload") with
    | Some w -> w
    | None -> usage ()
  in
  let int_arg k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
  let seed = int_arg "seed" in
  let seconds = float_of_int (int_arg "seconds") in
  let trace = int_arg "trace" = 1 in
  let work = get "work" in
  let env =
    { E2e.bin_dir = get "bin"; work; seed; seconds;
      nproc = Domain.recommended_domain_count () }
  in
  let commit = Option.value ~default:"unknown" (List.assoc_opt "commit" opts) in
  let provenance =
    [ ("seed", Json.int seed);
      ("seconds", Json.Num seconds);
      ("trace", Json.Bool trace);
      ("nproc", Json.int env.E2e.nproc);
      ("ocaml", Json.Str Sys.ocaml_version);
      ("commit", Json.Str commit) ]
  in
  let o = E2e.run env workload in
  let metric_json ms =
    Json.Obj
      (List.map
         (fun (name, v, unit) ->
           (name, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str unit) ]))
         ms)
  in
  let e2e = metric_json o.E2e.metrics in
  let metrics =
    if trace then metric_json (Layers.run env workload o) else e2e
  in
  print_string
    (Json.to_string_pretty
       (Json.Obj
          (provenance @ o.E2e.report
          @ [ ("end_to_end", e2e) ]
          @ if trace then [ ("per_layer", metrics) ] else [])));
  print_endline
    (Json.to_string
       (Json.Obj
          [ ("correct", Json.Bool (o.E2e.rejected = 0));
            ("attempted", Json.int o.E2e.attempted);
            ("failed", Json.int o.E2e.failed);
            ("metrics", metrics) ]))
