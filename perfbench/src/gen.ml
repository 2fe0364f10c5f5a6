(* Seeded request streams for the three workloads.

   The streams are generated here rather than by [tamopt load]: that
   generator's "distinct instances" step [total_width] up by one per
   request (W 16 -> 415 over 400 requests), so the cost of a miss grows
   with the length of the run and no two run lengths measure the same
   thing. Every instance below is drawn from a fixed distribution, so
   the per-request cost does not drift with run length.

   Everything is a pure function of the seed: the same seed gives
   byte-identical request lines. *)

module Json = Soctam_obs.Json
module Protocol = Soctam_service.Protocol
module Soc = Soctam_soc.Soc
module Benchmarks = Soctam_soc.Benchmarks
module Test_time = Soctam_soc.Test_time
module Floorplan = Soctam_layout.Floorplan
module Layout_conflicts = Soctam_layout.Conflicts
module Power_conflicts = Soctam_power.Power_conflicts

type workload = Hot_hits | Cold_race | Paper_sweep

let workload_of_string = function
  | "hot-hits" -> Some Hot_hits
  | "cold-race" -> Some Cold_race
  | "paper-sweep" -> Some Paper_sweep
  | _ -> None

(* ---- hot-hits parameters ---- *)

(* K distinct instances against an LRU of [daemon_cache] entries: the
   Zipf head stays resident, the tail is served by the store. The skew
   puts ~90% of requests on LRU hits and ~10% on store hits, so the
   median sits inside the LRU-hit mode and the p99 well inside the
   store-hit mode. With an even split (s = 0.99) the median fell in the
   gap between the two modes and moved by 20% between runs; with 20%
   store hits (s = 1.3) the p99 sat in the sparse tail of the store-hit
   mode and moved by 26%. *)
let hot_instances = 1024
let zipf_exponent = 1.5
let hot_inline_share = 0.2

(* Fixed open-loop arrival rate, about a quarter of the closed-loop
   capacity of this very stream measured on the commit that introduced
   the benchmark (2 connections, tamoptd --jobs 1, 2-core x86-64 VM:
   ~4,700 req/s). Fixed rather than re-measured per run, so a faster or
   slower daemon is offered the same load. At half the capacity the
   queue built in bursts and the median moved between 0.3 and 1.4 ms
   from run to run. *)
let hot_rate = 1200.0

(* ---- daemon settings shared by the daemon workloads ---- *)

(* Result-cache entries ([tamoptd --cache]). *)
let daemon_cache = 128

(* Connections the generator opens; never more than the machine has
   cores (see [E2e.connections]). *)
let connections = 2

(* ---- shared helpers ---- *)

let rng seed tag = Random.State.make [| seed; tag |]

(* Budgets on the wire carry two decimals, so the value the daemon
   parses is exactly the value the checker re-derives constraints
   from. *)
let two_decimals x = Float.round (x *. 100.0) /. 100.0

(* Layout and power budgets taken from the instance itself, loose
   enough that nearly every instance stays feasible but tight enough
   that both constraint kinds derive pairs: [d_max] is a high quantile
   of the floorplan's pairwise core distances, [p_max] a fraction of the
   smallest budget that makes the power constraint vacuous. *)
let budgets st soc =
  let q = 0.9 +. Random.State.float st 0.07 in
  let d_max = Layout_conflicts.distance_quantile (Floorplan.place soc) q in
  let frac = 0.88 +. Random.State.float st 0.1 in
  let p_max = Power_conflicts.feasible_p_max soc *. frac in
  (two_decimals d_max, two_decimals p_max)

let instance ~spec ~solver ~num_buses ~total_width ~d_max ~p_max =
  { Protocol.soc_spec = Protocol.Named spec;
    solver;
    num_buses;
    total_width;
    time_model = Test_time.Serialization;
    d_max_mm = Some d_max;
    p_max_mw = Some p_max }

(* Request body without an id; [with_id] splices one in front, so a
   stream of thousands of lines renders each distinct body once. *)
let body (inst : Protocol.instance) =
  Json.to_string
    (Protocol.json_of_request
       (Protocol.Solve { instance = inst; deadline_ms = None; stream = false }))

let with_id id body =
  Printf.sprintf "{\"id\":%s,%s" (Json.to_string id)
    (String.sub body 1 (String.length body - 1))

(* ---- hot-hits ---- *)

(* K distinct exact-solver instances of 8-12 cores. *)
let hot_set ~seed =
  let st = rng seed 1 in
  let seen = Hashtbl.create hot_instances in
  Array.init hot_instances (fun _ ->
      let rec fresh () =
        let s = 1 + Random.State.int st 999_999 in
        if Hashtbl.mem seen s then fresh () else (Hashtbl.add seen s (); s)
      in
      let soc_seed = fresh () in
      let n = 8 + Random.State.int st 5 in
      let num_buses = 2 + Random.State.int st 2 in
      let total_width = 8 + Random.State.int st 17 in
      let spec = Printf.sprintf "rnd:%d:%d" soc_seed n in
      let soc = Benchmarks.random ~seed:soc_seed ~num_cores:n () in
      let d_max, p_max = budgets st soc in
      ( instance ~spec ~solver:Protocol.Exact ~num_buses ~total_width ~d_max
          ~p_max,
        soc ))

(* The two request forms of one instance: the benchmark spec string,
   and the SOC carried inline as a customer chip would send it. The
   inline form carries power and dimensions as rendered on the wire (12
   significant digits), which is not bit-for-bit the named SOC, so the
   two forms are distinct cache keys: the working set is 2K keys. *)
let hot_bodies set =
  Array.map
    (fun ((inst : Protocol.instance), soc) ->
      ( body inst,
        body { inst with Protocol.soc_spec = Protocol.Inline soc } ))
    set

(* [count] draws of (instance index, inline?) — Zipf over a seeded
   permutation of the instances, so which instances are hot changes
   with the seed. *)
let hot_draws ~seed ~count =
  let st = rng seed 2 in
  let k = hot_instances in
  let perm = Array.init k Fun.id in
  for i = k - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = perm.(i) in
    perm.(i) <- perm.(j);
    perm.(j) <- t
  done;
  let cdf = Array.make k 0.0 in
  let acc = ref 0.0 in
  for r = 0 to k - 1 do
    acc := !acc +. (1.0 /. (float_of_int (r + 1) ** zipf_exponent));
    cdf.(r) <- !acc
  done;
  let total = !acc in
  let rank u =
    (* first r with cdf.(r) >= u *)
    let lo = ref 0 and hi = ref (k - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if cdf.(mid) >= u then hi := mid else lo := mid + 1
    done;
    !lo
  in
  Array.init count (fun _ ->
      let u = Random.State.float st total in
      let inline = Random.State.float st 1.0 < hot_inline_share in
      (perm.(rank u), inline))

let hot_lines ~bodies draws =
  Array.mapi
    (fun i (k, inline) ->
      let named, inl = bodies.(k) in
      with_id (Json.int i) (if inline then inl else named))
    draws

(* One line per distinct request body, sent once at set-up to populate
   the store. Its replies are the references hit replies are compared
   against. *)
let preload_lines bodies =
  Array.to_list bodies
  |> List.mapi (fun k (named, inl) ->
         [ (k, false, with_id (Json.Str (Printf.sprintf "p%d" k)) named);
           (k, true, with_id (Json.Str (Printf.sprintf "p%di" k)) inl) ])
  |> List.concat

(* ---- cold-race ---- *)

(* The daemons grow with every distinct instance they serve, so their
   peak RSS at the end of a run follows how many requests the host's
   speed allowed: 26-35 MB over ten 40 s runs. It is read when this
   many replies have arrived instead, which even a run at half the
   usual speed reaches (2 daemons, 40 s window, 2-core x86-64 VM:
   3,800-7,000 replies). *)
let cold_rss_replies = 2000

(* Request [i] of the cold stream: a distinct seeded instance, both
   budgets set, raced. The SOC seed is unique per index, so every
   request misses both cache tiers.

   Core count and bus count are stratified: each block of consecutive
   requests holds every (nb, n) pair below once, in a seeded order, so
   the mix of instance sizes in a run does not depend on the seed. On
   3 buses n runs 12-20; on 2 buses it stops at 16. The 2-bus
   assignment search grows steeply with n: at 17-20 cores one request
   costs 60-760 ms (2-core x86-64 VM), so a 20 s run held ~450
   requests, its p99 rested on 4 samples, and p50/p99/throughput moved
   by 13-32% between seeds. *)
let cold_strata =
  Array.of_list
    (List.init 5 (fun k -> (2, 12 + k)) @ List.init 9 (fun k -> (3, 12 + k)))

let cold_line ~seed i =
  let nstrata = Array.length cold_strata in
  let block = Array.copy cold_strata in
  let bst = Random.State.make [| seed; 5; i / nstrata |] in
  for j = nstrata - 1 downto 1 do
    let k = Random.State.int bst (j + 1) in
    let t = block.(j) in
    block.(j) <- block.(k);
    block.(k) <- t
  done;
  let num_buses, n = block.(i mod nstrata) in
  let st = Random.State.make [| seed; 3; i |] in
  let total_width = 16 + Random.State.int st 33 in
  let soc_seed = (seed land 0xFFFF * 1_000_000) + i in
  let soc = Benchmarks.random ~seed:soc_seed ~num_cores:n () in
  let d_max, p_max = budgets st soc in
  let spec = Printf.sprintf "rnd:%d:%d" soc_seed n in
  with_id (Json.int i)
    (body
       (instance ~spec ~solver:Protocol.Race ~num_buses ~total_width ~d_max
          ~p_max))

(* ---- paper-sweep ---- *)

type sweep_job = {
  soc : string;
  num_buses : int;
  widths : int list;
  d_max : float option;
  p_max : float option;
  solver : string;  (** ["ilp"] or ["pack"] *)
}

(* The paper's grid: S1-S3 x nb {2,3} x a width range, each
   unconstrained, layout-constrained and layout+power-constrained.
   Budgets per SOC bind a few pairs each (S1 die 2.8x5.3 mm, S2
   6.4x6.2 mm, S3 4.7x6.8 mm). Width ranges stop where an ILP cell
   would pass ~0.5 s, so the grid stays a few seconds long and every
   cell proves optimality. The pack sweeps are E13's 4-core instances
   with a 1.3x-hungriest-core envelope. *)
let paper_grid =
  let sizes =
    [ ("s1", 4.0, 200.0, [ (2, [ 16; 24; 32 ]); (3, [ 16; 24 ]) ]);
      ("s2", 6.5, 1700.0, [ (2, [ 8; 16; 24 ]); (3, [ 8; 16 ]) ]);
      ("s3", 6.0, 650.0, [ (2, [ 8; 16 ]); (3, [ 8; 16 ]) ]) ]
  in
  let ilp =
    List.concat_map
      (fun (soc, d, p, per_nb) ->
        List.concat_map
          (fun (num_buses, widths) ->
            List.map
              (fun (d_max, p_max) ->
                { soc; num_buses; widths; d_max; p_max; solver = "ilp" })
              [ (None, None); (Some d, None); (Some d, Some p) ])
          per_nb)
      sizes
  in
  let pack =
    [ { soc = "rnd:5:4"; num_buses = 2; widths = [ 6; 8 ]; d_max = None;
        p_max = Some 1205.0; solver = "pack" };
      { soc = "rnd:9:4"; num_buses = 2; widths = [ 6; 8 ]; d_max = None;
        p_max = Some 961.0; solver = "pack" } ]
  in
  ilp @ pack

(* The grid is the paper's and does not depend on the seed; the seed
   fixes the order the sweeps run in, so no order effect (a warm page
   cache, a neighbour's burst) is baked into one position. *)
let paper_order ~seed =
  let st = rng seed 4 in
  let a = Array.of_list paper_grid in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

let sweep_args job ~jobs ~json_path =
  [ "sweep"; "--soc"; job.soc; "-b"; string_of_int job.num_buses;
    "--widths"; String.concat "," (List.map string_of_int job.widths);
    "--solver"; job.solver; "--jobs"; string_of_int jobs; "--json";
    json_path ]
  @ (match job.d_max with
    | Some d -> [ "--d-max"; Printf.sprintf "%g" d ]
    | None -> [])
  @
  match job.p_max with
  | Some p -> [ "--p-max"; Printf.sprintf "%g" p ]
  | None -> []

let job_name job =
  Printf.sprintf "%s/nb%d/%s%s%s" job.soc job.num_buses job.solver
    (match job.d_max with Some d -> Printf.sprintf "/d%g" d | None -> "")
    (match job.p_max with Some p -> Printf.sprintf "/p%g" p | None -> "")
