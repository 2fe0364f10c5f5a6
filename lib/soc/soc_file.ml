let ( let* ) = Result.bind

let fail line fmt =
  Printf.ksprintf (fun msg -> Error (Printf.sprintf "line %d: %s" line msg))
    fmt

let split_words s =
  String.split_on_char ' ' s
  |> List.concat_map (String.split_on_char '\t')
  |> List.filter (fun w -> w <> "")

let parse_keyvals line words =
  let parse_one acc word =
    let* acc = acc in
    match String.index_opt word '=' with
    | None -> fail line "expected key=value, got %S" word
    | Some i ->
        let key = String.sub word 0 i in
        let value = String.sub word (i + 1) (String.length word - i - 1) in
        if List.mem_assoc key acc then fail line "duplicate key %S" key
        else Ok ((key, value) :: acc)
  in
  List.fold_left parse_one (Ok []) words

let int_field line kvs key =
  match List.assoc_opt key kvs with
  | None -> fail line "missing required field %S" key
  | Some v -> (
      match int_of_string_opt v with
      | Some n -> Ok n
      | None -> fail line "field %S: %S is not an integer" key v)

let opt_int_field line kvs key =
  match List.assoc_opt key kvs with
  | None -> Ok None
  | Some v -> (
      match int_of_string_opt v with
      | Some n -> Ok (Some n)
      | None -> fail line "field %S: %S is not an integer" key v)

let opt_float_field line kvs key =
  match List.assoc_opt key kvs with
  | None -> Ok None
  | Some v -> (
      match float_of_string_opt v with
      | Some f -> Ok (Some f)
      | None -> fail line "field %S: %S is not a number" key v)

let opt_dim_field line kvs =
  match List.assoc_opt "dim" kvs with
  | None -> Ok None
  | Some v -> (
      match String.split_on_char 'x' v with
      | [ w; h ] -> (
          match (float_of_string_opt w, float_of_string_opt h) with
          | Some w, Some h -> Ok (Some (w, h))
          | _ -> fail line "field \"dim\": expected <w>x<h>, got %S" v)
      | _ -> fail line "field \"dim\": expected <w>x<h>, got %S" v)

let known_keys =
  [ "inputs"; "outputs"; "ff"; "chains"; "patterns"; "power"; "dim" ]

let parse_core line words =
  match words with
  | [] -> fail line "core without a name"
  | name :: fields ->
      let* kvs = parse_keyvals line fields in
      let* () =
        List.fold_left
          (fun acc (key, _) ->
            let* () = acc in
            if List.mem key known_keys then Ok ()
            else fail line "unknown field %S" key)
          (Ok ()) kvs
      in
      let* inputs = int_field line kvs "inputs" in
      let* outputs = int_field line kvs "outputs" in
      let* patterns = int_field line kvs "patterns" in
      let* ff = opt_int_field line kvs "ff" in
      let* chains = opt_int_field line kvs "chains" in
      let* power = opt_float_field line kvs "power" in
      let* dim = opt_dim_field line kvs in
      let* scan =
        match (ff, chains) with
        | None, None | Some 0, None -> Ok Core_def.Combinational
        | Some flip_flops, Some chains ->
            Ok (Core_def.Scan { flip_flops; chains })
        | Some flip_flops, None ->
            Ok (Core_def.Scan { flip_flops; chains = 1 })
        | None, Some _ -> fail line "field \"chains\" requires \"ff\""
      in
      let flip_flops =
        match scan with
        | Core_def.Combinational -> 0
        | Core_def.Scan { flip_flops; _ } -> flip_flops
      in
      let power_mw =
        match power with
        | Some p -> p
        | None -> Benchmarks.derived_power_mw ~inputs ~outputs ~flip_flops
      in
      let dim_mm =
        match dim with
        | Some d -> d
        | None -> Benchmarks.derived_dim_mm ~inputs ~outputs ~flip_flops
      in
      (try
         Ok (Core_def.make ~name ~inputs ~outputs ~scan ~patterns ~power_mw
               ~dim_mm)
       with Invalid_argument msg -> fail line "%s" msg)

let of_string text =
  let lines = String.split_on_char '\n' text in
  let parse (acc : (string option * Core_def.t list, string) result)
      (lineno, raw) =
    let* soc_name, cores = acc in
    let content =
      match String.index_opt raw '#' with
      | Some i -> String.sub raw 0 i
      | None -> raw
    in
    match split_words content with
    | [] -> Ok (soc_name, cores)
    | "soc" :: rest -> (
        match (soc_name, rest) with
        | Some _, _ -> fail lineno "duplicate \"soc\" line"
        | None, [ name ] -> Ok (Some name, cores)
        | None, _ -> fail lineno "expected: soc <name>")
    | "core" :: rest ->
        if soc_name = None then
          fail lineno "\"core\" before the \"soc\" line"
        else
          let* core = parse_core lineno rest in
          Ok (soc_name, core :: cores)
    | keyword :: _ -> fail lineno "unknown keyword %S" keyword
  in
  let numbered = List.mapi (fun i l -> (i + 1, l)) lines in
  let* soc_name, cores = List.fold_left parse (Ok (None, [])) numbered in
  match soc_name with
  | None -> Error "missing \"soc <name>\" line"
  | Some name -> (
      try Ok (Soc.make ~name (List.rev cores))
      with Invalid_argument msg -> Error msg)

(* Every error names the path once: an open failure's message already
   starts with it, a read failure's and a parse error's do not. *)
let of_file path =
  let named msg =
    if String.starts_with ~prefix:path msg then msg
    else Printf.sprintf "%s: %s" path msg
  in
  match In_channel.with_open_text path In_channel.input_all with
  | text -> Result.map_error named (of_string text)
  | exception Sys_error msg -> Error (named msg)

let of_spec ?(max_cores = max_int) spec =
  let over_cap n =
    Error
      (Printf.sprintf "SOC %S has %d cores, above the cap of %d" spec n
         max_cores)
  in
  let capped soc =
    let n = Soc.num_cores soc in
    if n > max_cores then over_cap n else Ok soc
  in
  match String.split_on_char ':' spec with
  | [ ("s1" | "S1") ] -> capped (Benchmarks.s1 ())
  | [ ("s2" | "S2") ] -> capped (Benchmarks.s2 ())
  | [ ("s3" | "S3") ] -> capped (Benchmarks.s3 ())
  | [ "rnd"; seed; n ] -> (
      match (int_of_string_opt seed, int_of_string_opt n) with
      | Some _, Some n when n > max_cores -> over_cap n
      | Some seed, Some n -> (
          match Benchmarks.random ~seed ~num_cores:n () with
          | soc -> Ok soc
          | exception Invalid_argument msg -> Error msg)
      | _ -> Error "rnd:<seed>:<n> takes two integers")
  | "file" :: rest ->
      Result.bind (of_file (String.concat ":" rest)) capped
  | _ ->
      Error
        (Printf.sprintf
           "unknown SOC %S (use s1, s2, s3, rnd:<seed>:<n> or file:<path>)"
           spec)

let to_string soc =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "soc %s\n" (Soc.name soc));
  Soc.fold
    (fun () _ core ->
      let scan_fields =
        match core.Core_def.scan with
        | Core_def.Combinational -> ""
        | Core_def.Scan { flip_flops; chains } ->
            Printf.sprintf " ff=%d chains=%d" flip_flops chains
      in
      let w, h = core.Core_def.dim_mm in
      Buffer.add_string buf
        (Printf.sprintf
           "core %s inputs=%d outputs=%d%s patterns=%d power=%.17g \
            dim=%.17gx%.17g\n"
           core.Core_def.name core.Core_def.inputs core.Core_def.outputs
           scan_fields core.Core_def.patterns core.Core_def.power_mw w h))
    () soc;
  Buffer.contents buf
