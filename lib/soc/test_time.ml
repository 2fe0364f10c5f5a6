type model = Serialization | Scan_distribution

let native_width core =
  max core.Core_def.inputs core.Core_def.outputs + Core_def.chains core

let base_cycles core =
  let p = core.Core_def.patterns in
  match core.Core_def.scan with
  | Core_def.Combinational -> p + 1
  | Core_def.Scan _ ->
      let l = Core_def.longest_chain core in
      (p * (l + 1)) + l

let serialization_cycles core ~width =
  let l = native_width core in
  let effective = min width l in
  base_cycles core * ((l + effective - 1) / effective)

let scan_distribution_cycles core ~width =
  let { Wrapper.si; so } = Wrapper.design core ~tam_width:width in
  let p = core.Core_def.patterns in
  ((1 + max si so) * p) + min si so

let cycles model core ~width =
  if width < 1 then invalid_arg "Test_time.cycles: width < 1";
  match model with
  | Serialization -> serialization_cycles core ~width
  | Scan_distribution -> scan_distribution_cycles core ~width

let table model core ~max_width =
  Array.init max_width (fun k -> cycles model core ~width:(k + 1))

let model_name = function
  | Serialization -> "serialization"
  | Scan_distribution -> "scan-distribution"

let models = [ Serialization; Scan_distribution ]

let model_token = function
  | Serialization -> "serialization"
  | Scan_distribution -> "scan"

let model_of_token token =
  match List.find_opt (fun m -> model_token m = token) models with
  | Some m -> Ok m
  | None ->
      Error
        ("must be "
        ^ String.concat " or "
            (List.map (fun m -> Printf.sprintf "%S" (model_token m)) models))
