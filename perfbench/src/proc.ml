(* Child processes of a benchmark run: the daemon and the sweep CLI.

   Every child is registered until it has been waited for, and an
   [at_exit] hook kills and reaps whatever is left, so no run leaves a
   daemon behind — not even one that fails half-way. *)

module Clock = Soctam_obs.Clock
module Json = Soctam_obs.Json

external wait4 : int -> int * int = "perfbench_wait4"

let live : (int, unit) Hashtbl.t = Hashtbl.create 4

let reap_all () =
  Hashtbl.iter
    (fun pid () ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    live;
  Hashtbl.reset live

let () =
  at_exit reap_all;
  let on_signal _ = exit 3 in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal);
  Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal)

let spawn ~log prog args =
  let out =
    Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644
  in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let pid =
    Fun.protect
      ~finally:(fun () ->
        Unix.close out;
        Unix.close devnull)
      (fun () ->
        Unix.create_process prog (Array.of_list (prog :: args)) devnull out out)
  in
  Hashtbl.replace live pid ();
  pid

(* [wait pid] -> (exit code, peak RSS in KiB). *)
let wait pid =
  let r = wait4 pid in
  Hashtbl.remove live pid;
  r

(* ---- the daemon ---- *)

type daemon = { pid : int; path : string; spawned : float; ready : float }

(* One request/reply exchange on a fresh connection. *)
let rpc path line =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      Unix.connect fd (Unix.ADDR_UNIX path);
      let oc = Unix.out_channel_of_descr fd in
      let ic = Unix.in_channel_of_descr fd in
      output_string oc (line ^ "\n");
      flush oc;
      input_line ic)

let ping_ok path =
  match rpc path {|{"op":"ping"}|} with
  | reply -> (
      match Json.parse reply with
      | Ok j -> Json.member "ok" j = Some (Json.Bool true)
      | Error _ -> false)
  | exception (Unix.Unix_error _ | End_of_file | Sys_error _) -> false

(* Spawn [tamoptd] listening on [path] and poll until its first
   successful ping. [ready -. spawned] is the set-up time: process
   start, store recovery and bind. *)
let start_daemon ~bin ~log ~path ~timeout_s args =
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let spawned = Clock.now_s () in
  let pid = spawn ~log bin ([ "--listen"; "unix:" ^ path ] @ args) in
  let rec poll () =
    if ping_ok path then Clock.now_s ()
    else if Clock.now_s () -. spawned > timeout_s then
      failwith "tamoptd did not answer a ping in time"
    else begin
      (match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ -> ()
      | _ ->
          Hashtbl.remove live pid;
          failwith "tamoptd exited during start-up"
      | exception Unix.Unix_error _ -> ());
      Unix.sleepf 0.0005;
      poll ()
    end
  in
  let ready = poll () in
  { pid; path; spawned; ready }

let setup_s d = d.ready -. d.spawned

(* Peak resident set so far, from /proc (Linux). *)
let vm_hwm_kib pid =
  let path = Printf.sprintf "/proc/%d/status" pid in
  match In_channel.with_open_text path In_channel.input_all with
  | text ->
      List.find_map
        (fun l ->
          match String.split_on_char ':' l with
          | [ "VmHWM"; v ] ->
              Scanf.sscanf_opt (String.trim v) "%d kB" Fun.id
          | _ -> None)
        (String.split_on_char '\n' text)
  | exception Sys_error _ -> None

let stats d =
  match Json.parse (rpc d.path {|{"op":"stats"}|}) with
  | Ok j -> Json.member "result" j
  | Error _ -> None

(* Ask the daemon to drain and exit; kill it if it does not. *)
let stop_daemon d =
  (try ignore (rpc d.path {|{"op":"shutdown"}|})
   with Unix.Unix_error _ | End_of_file | Sys_error _ -> ());
  let deadline = Clock.now_s () +. 20.0 in
  let rec reap () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ when Clock.now_s () < deadline ->
        Unix.sleepf 0.005;
        reap ()
    | 0, _ ->
        (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] d.pid)
    | _ -> ()
    | exception Unix.Unix_error _ -> ()
  in
  reap ();
  Hashtbl.remove live d.pid

(* ---- the CLI ---- *)

(* Run [tamopt args] to completion: (exit code, wall s, peak RSS KiB). *)
let run_cli ~bin ~log args =
  let t0 = Clock.now_s () in
  let pid = spawn ~log bin args in
  let code, maxrss = wait pid in
  (code, Clock.now_s () -. t0, maxrss)
