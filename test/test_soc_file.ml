module Soc_file = Soctam_soc.Soc_file
module Soc = Soctam_soc.Soc
module Core_def = Soctam_soc.Core_def
module Benchmarks = Soctam_soc.Benchmarks

let sample =
  {|# a sample chip
soc mychip
core cpu inputs=64 outputs=64 ff=1200 chains=8 patterns=150 power=700 dim=2.5x2.5
core rom inputs=20 outputs=16 patterns=64  # combinational, derived power
|}

let parse_ok text =
  match Soc_file.of_string text with
  | Ok soc -> soc
  | Error msg -> Alcotest.failf "parse failed: %s" msg

let parse_err text =
  match Soc_file.of_string text with
  | Ok _ -> Alcotest.fail "expected a parse error"
  | Error msg -> msg

let contains haystack needle =
  let lh = String.length haystack and ln = String.length needle in
  let rec loop i =
    i + ln <= lh && (String.sub haystack i ln = needle || loop (i + 1))
  in
  loop 0

let test_parse_sample () =
  let soc = parse_ok sample in
  Alcotest.(check string) "name" "mychip" (Soc.name soc);
  Alcotest.(check int) "cores" 2 (Soc.num_cores soc);
  let cpu = Soc.core soc 0 in
  Alcotest.(check int) "cpu inputs" 64 cpu.Core_def.inputs;
  Alcotest.(check int) "cpu ff" 1200 (Core_def.flip_flops cpu);
  Alcotest.(check (float 1e-9)) "cpu power" 700.0 cpu.Core_def.power_mw;
  Alcotest.(check (float 1e-9)) "cpu dim" 2.5 (fst cpu.Core_def.dim_mm);
  let rom = Soc.core soc 1 in
  Alcotest.(check int) "rom comb" 0 (Core_def.flip_flops rom);
  Alcotest.(check (float 1e-9)) "rom derived power"
    (Benchmarks.derived_power_mw ~inputs:20 ~outputs:16 ~flip_flops:0)
    rom.Core_def.power_mw

let test_ff_without_chains_defaults_to_one () =
  let soc =
    parse_ok "soc x\ncore a inputs=4 outputs=4 ff=10 patterns=5\n"
  in
  Alcotest.(check int) "one chain" 1 (Core_def.chains (Soc.core soc 0))

let test_errors_carry_line_numbers () =
  let msg =
    parse_err "soc x\ncore a inputs=4 outputs=4 patterns=5\ncore b inputs=z outputs=4 patterns=5\n"
  in
  Alcotest.(check bool) "line 3 reported" true (contains msg "line 3")

let test_error_cases () =
  let check_error name text fragment =
    let msg = parse_err text in
    Alcotest.(check bool)
      (Printf.sprintf "%s: %s mentions %s" name msg fragment)
      true (contains msg fragment)
  in
  check_error "no soc" "core a inputs=1 outputs=1 patterns=1\n" "before";
  check_error "missing soc entirely" "# nothing\n" "missing";
  check_error "duplicate soc" "soc a\nsoc b\n" "duplicate";
  check_error "unknown keyword" "soc a\nbus 4\n" "unknown keyword";
  check_error "unknown field" "soc a\ncore c inputs=1 outputs=1 patterns=1 foo=2\n" "unknown field";
  check_error "missing field" "soc a\ncore c inputs=1 outputs=1\n" "patterns";
  check_error "duplicate key" "soc a\ncore c inputs=1 inputs=2 outputs=1 patterns=1\n" "duplicate key";
  check_error "chains without ff" "soc a\ncore c inputs=1 outputs=1 patterns=1 chains=2\n" "requires";
  check_error "bad dim" "soc a\ncore c inputs=1 outputs=1 patterns=1 dim=3\n" "dim";
  check_error "duplicate cores" "soc a\ncore c inputs=1 outputs=1 patterns=1\ncore c inputs=1 outputs=1 patterns=1\n" "duplicate";
  check_error "invalid core data" "soc a\ncore c inputs=1 outputs=1 patterns=0\n" "patterns"

let socs_equal a b =
  Soc.name a = Soc.name b && Soc.cores a = Soc.cores b

let test_roundtrip_sample () =
  let soc = parse_ok sample in
  let soc' = parse_ok (Soc_file.to_string soc) in
  Alcotest.(check bool) "roundtrip" true (socs_equal soc soc')

let prop_roundtrip_random =
  QCheck.Test.make ~name:"to_string/of_string roundtrip" ~count:60
    QCheck.(pair (int_bound 500) (int_range 1 10))
    (fun (seed, n) ->
      let soc = Benchmarks.random ~seed ~num_cores:n () in
      match Soc_file.of_string (Soc_file.to_string soc) with
      | Ok soc' -> socs_equal soc soc'
      | Error _ -> false)

let test_of_file () =
  let path = Filename.temp_file "soctam" ".soc" in
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc sample);
  (match Soc_file.of_file path with
  | Ok soc -> Alcotest.(check int) "cores from file" 2 (Soc.num_cores soc)
  | Error msg -> Alcotest.failf "of_file: %s" msg);
  Sys.remove path;
  match Soc_file.of_file "/nonexistent/really.soc" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing file must error"

let test_of_spec () =
  let cores spec =
    match Soc_file.of_spec spec with
    | Ok soc -> Soc.num_cores soc
    | Error msg -> Alcotest.failf "of_spec %s: %s" spec msg
  in
  Alcotest.(check int) "s1" 6 (cores "s1");
  Alcotest.(check int) "S2" 10 (cores "S2");
  Alcotest.(check int) "rnd" 5 (cores "rnd:3:5");
  let rejected ?max_cores spec =
    match Soc_file.of_spec ?max_cores spec with
    | Ok _ -> Alcotest.failf "of_spec accepted %s" spec
    | Error msg -> msg
  in
  Alcotest.(check bool) "unknown spec names the grammar" true
    (contains (rejected "bogus") "rnd:<seed>:<n>");
  ignore (rejected "rnd:x:3");
  ignore (rejected "rnd:1:0");
  Alcotest.(check bool) "missing file names the path" true
    (contains (rejected "file:/nonexistent/really.soc") "really.soc")

(* The core cap applies to the resolved SOC of every named form, not
   only to an [rnd] count. *)
let test_of_spec_cap () =
  let path = Filename.temp_file "soctam" ".soc" in
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc
        (sample ^ "core dsp inputs=32 outputs=32 patterns=90\n"));
  let spec = "file:" ^ path in
  let outcome ~max_cores spec =
    Result.map Soc.num_cores (Soc_file.of_spec ~max_cores spec)
  in
  Alcotest.(check bool) "3-core file under a cap of 2" true
    (Result.is_error (outcome ~max_cores:2 spec));
  Alcotest.(check (result int string)) "3-core file at a cap of 3" (Ok 3)
    (outcome ~max_cores:3 spec);
  Sys.remove path;
  Alcotest.(check bool) "rnd over the cap" true
    (Result.is_error (outcome ~max_cores:2 "rnd:1:3"));
  Alcotest.(check bool) "benchmark over the cap" true
    (Result.is_error (outcome ~max_cores:2 "s1"));
  Alcotest.(check (result int string)) "rnd at the cap" (Ok 2)
    (outcome ~max_cores:2 "rnd:1:2")

let suite =
  [ Alcotest.test_case "parse sample" `Quick test_parse_sample;
    Alcotest.test_case "ff without chains" `Quick
      test_ff_without_chains_defaults_to_one;
    Alcotest.test_case "line numbers" `Quick test_errors_carry_line_numbers;
    Alcotest.test_case "error cases" `Quick test_error_cases;
    Alcotest.test_case "roundtrip sample" `Quick test_roundtrip_sample;
    Alcotest.test_case "of_file" `Quick test_of_file;
    Alcotest.test_case "of_spec" `Quick test_of_spec;
    Alcotest.test_case "of_spec core cap" `Quick test_of_spec_cap;
    QCheck_alcotest.to_alcotest prop_roundtrip_random ]
