(** Textual SOC descriptions.

    A small line-oriented format so users can feed their own SOCs to the
    tools without writing OCaml:

    {v
    # comment
    soc mychip
    core cpu  inputs=64 outputs=64 ff=1200 chains=8 patterns=150 power=700 dim=2.5x2.5
    core rom  inputs=20 outputs=16 patterns=64
    v}

    [ff]/[chains] default to a combinational core; [power] and [dim]
    default to the synthesized values of
    {!Benchmarks.derived_power_mw} / {!Benchmarks.derived_dim_mm}. *)

(** [of_string text] parses a description. Errors carry the 1-based line
    number and a human-readable reason. *)
val of_string : string -> (Soc.t, string) result

(** [of_file path] reads and parses a file; IO errors are reported in the
    same [Error] channel, and every error names the path. *)
val of_file : string -> (Soc.t, string) result

(** [of_spec ?max_cores spec] resolves the one SOC spec grammar, shared
    by [tamopt --soc] and the daemon: ["s1"]/["s2"]/["s3"],
    ["rnd:<seed>:<n>"] or ["file:<path>"]. An SOC above [max_cores] is
    rejected in every form ([rnd] before it is generated). *)
val of_spec : ?max_cores:int -> string -> (Soc.t, string) result

(** [to_string soc] renders a description that {!of_string} parses back
    to an equal SOC (floats are printed in full precision). *)
val to_string : Soc.t -> string
