(** Core testing time as a function of TAM width.

    Two models are provided:

    - {b Serialization} (the DAC 2000 model): each core ships a
      precomputed test set of native width [native_width core]; attaching
      the core to a narrower TAM serializes every test-data slice, so
      [t(w) = base_cycles * ceil (native_width / w)], with no improvement
      beyond the native width.
    - {b Scan_distribution} (extension; Aerts–Marinissen ITC'98): the
      wrapper rebalances boundary cells and internal scan chains over the
      [w] TAM wires and
      [t(w) = (1 + max si so) * patterns + min si so].

    Both are non-increasing staircases in [w]. *)

type model = Serialization | Scan_distribution

(** Width of the core's precomputed test-data slices: the wider of the
    stimulus and response sides plus one wire per internal scan chain. *)
val native_width : Core_def.t -> int

(** Test length (clock cycles) at the native width: scan cores pay
    [patterns * (longest_chain + 1) + longest_chain] cycles (interleaved
    scan load/unload plus final unload), combinational cores pay one cycle
    per pattern plus one final capture. *)
val base_cycles : Core_def.t -> int

(** [cycles model core ~width] is the testing time of [core] on a TAM of
    width [width] under [model]. Raises [Invalid_argument] when
    [width < 1]. *)
val cycles : model -> Core_def.t -> width:int -> int

(** [table model core ~max_width] tabulates [cycles] for widths
    [1 .. max_width]. *)
val table : model -> Core_def.t -> max_width:int -> int array

(** Human-readable model name ("serialization" /
    "scan-distribution"); it feeds canonical digests. *)
val model_name : model -> string

(** The [--model] / wire spelling: ["serialization"] or ["scan"]. *)
val model_token : model -> string

(** Inverse of {!model_token}; the error reason lists the tokens. *)
val model_of_token : string -> (model, string) result
