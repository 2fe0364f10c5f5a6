(* The load generator: one process, one thread, [select] over a few
   Unix-socket connections.

   Open loop: request [i] is due at [t0 + i / rate] whatever the daemon
   is doing, and its latency runs from that due time — a stall is
   charged to every request it delays, not only to the one in flight.
   How late the generator itself ran ([sent - due]) is recorded too.

   Closed loop: each connection sends its next request as soon as the
   previous reply arrives; a request is due when it is sent.

   Replies are matched to requests by position: the daemon answers the
   lines of one connection in order, one reply line each. *)

module Clock = Soctam_obs.Clock

type record = {
  index : int;
  due : float;
  mutable sent : float;
  mutable recv : float;  (** [nan] while outstanding *)
  mutable reply : string option;
}

(* Latency of one completed request, in ms, counted from its due time.
   In an open loop [due] precedes [sent] whenever the generator ran
   late; counting from [sent] would hide that wait. *)
let latency_ms r = (r.recv -. r.due) *. 1000.0
let lateness_ms r = (r.sent -. r.due) *. 1000.0

type conn = {
  fd : Unix.file_descr;
  pending : record Queue.t;  (** sent, awaiting reply, in order *)
  inbuf : Buffer.t;  (** bytes of an incomplete reply line *)
  mutable out : string;  (** bytes not yet accepted by the socket *)
}

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_UNIX path)
   with e ->
     Unix.close fd;
     raise e);
  Unix.set_nonblock fd;
  { fd; pending = Queue.create (); inbuf = Buffer.create 65536; out = "" }

let flush_out c =
  let len = String.length c.out in
  if len > 0 then
    match Unix.write_substring c.fd c.out 0 len with
    | n -> c.out <- String.sub c.out n (len - n)
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()

(* [line] ends with its newline. *)
let send c r line =
  r.sent <- Clock.now_s ();
  Queue.push r c.pending;
  c.out <- (if c.out = "" then line else c.out ^ line);
  flush_out c

let chunk = Bytes.create 65536

(* Read what is available; every complete line is the reply to the
   oldest pending request and is stamped with [now]. Returns [false]
   when the daemon hung up. *)
let read_replies c ~now ~on_reply =
  match Unix.read c.fd chunk 0 (Bytes.length chunk) with
  | 0 -> false
  | n ->
      let start = ref 0 in
      for i = 0 to n - 1 do
        if Bytes.get chunk i = '\n' then begin
          Buffer.add_subbytes c.inbuf chunk !start (i - !start);
          start := i + 1;
          let line = Buffer.contents c.inbuf in
          Buffer.clear c.inbuf;
          match Queue.take_opt c.pending with
          | Some r ->
              r.recv <- now;
              r.reply <- Some line;
              on_reply c r
          | None -> ()
        end
      done;
      Buffer.add_subbytes c.inbuf chunk !start (n - !start);
      true
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      true

type mode =
  | Open of { rate : float; count : int }
      (** [count] requests at [rate] per second, round-robin over the
          connections. *)
  | Closed of { until_s : float; count : int }
      (** Keep every connection busy until [until_s] seconds after the
          start or [count] requests have been issued, then let the
          outstanding requests finish. *)

(* Drive [line i] (the i-th request line, newline included) over one
   connection to each daemon socket in [paths] (a path may repeat).
   Returns every request issued, in index order.
   [at_reply] = [(n, f)] calls [f ()] once, when the [n]-th reply
   arrives.
   [drain_s] bounds the wait for replies after the last send; requests
   still unanswered then keep [reply = None]. *)
let run ?at_reply ~paths ~mode ~drain_s (line : int -> string) =
  let cs = Array.of_list (List.map connect paths) in
  let conns = Array.length cs in
  let t0 = Clock.now_s () +. 0.01 in
  let issued = ref [] in
  let next = ref 0 in
  let outstanding = ref 0 in
  let alive = ref true in
  let issue c due =
    let r =
      { index = !next; due; sent = nan; recv = nan; reply = None }
    in
    let l = line !next in
    incr next;
    incr outstanding;
    issued := r :: !issued;
    send c r l
  in
  let closed_stop, closed_count =
    match mode with
    | Closed { until_s; count } -> (t0 +. until_s, count)
    | Open _ -> (0.0, 0)
  in
  let closed_done now = now >= closed_stop || !next >= closed_count in
  let replies = ref 0 in
  let on_reply c _ =
    incr replies;
    (match at_reply with Some (n, f) when !replies = n -> f () | _ -> ());
    decr outstanding;
    match mode with
    | Closed _ ->
        let now = Clock.now_s () in
        if not (closed_done now) then issue c now
    | Open _ -> ()
  in
  (match mode with
  | Closed _ ->
      while Clock.now_s () < t0 do () done;
      Array.iter
        (fun c -> if not (closed_done (Clock.now_s ())) then issue c (Clock.now_s ()))
        cs
  | Open _ -> ());
  let all_sent () =
    match mode with
    | Open { count; _ } -> !next >= count
    | Closed _ -> closed_done (Clock.now_s ())
  in
  let drain_deadline = ref infinity in
  while !alive && not (all_sent () && !outstanding = 0) do
    let now = Clock.now_s () in
    (match mode with
    | Open { rate; count } ->
        let due i = t0 +. (float_of_int i /. rate) in
        while !next < count && due !next <= now do
          issue cs.(!next mod conns) (due !next)
        done
    | Closed _ -> ());
    if all_sent () && !drain_deadline = infinity then
      drain_deadline := now +. drain_s;
    if now > !drain_deadline then alive := false
    else begin
      let timeout =
        match mode with
        | Open { rate; count } when !next < count ->
            Float.max 0.0 (t0 +. (float_of_int !next /. rate) -. now)
        | Open _ -> 0.05
        | Closed _ -> 0.05
      in
      let fds = Array.to_list (Array.map (fun c -> c.fd) cs) in
      let wfds =
        Array.to_list cs
        |> List.filter (fun c -> c.out <> "")
        |> List.map (fun c -> c.fd)
      in
      let readable, writable, _ =
        try Unix.select fds wfds [] timeout
        with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
      in
      let t = Clock.now_s () in
      Array.iter
        (fun c ->
          if List.mem c.fd writable then flush_out c;
          if List.mem c.fd readable then
            if not (read_replies c ~now:t ~on_reply) then alive := false)
        cs
    end
  done;
  Array.iter (fun c -> Unix.close c.fd) cs;
  let a = Array.of_list !issued in
  Array.sort (fun x y -> compare x.index y.index) a;
  a
