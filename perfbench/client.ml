(** RESP client connections and the closed-loop load driver.

    One thread drives every connection through [select]: a connection
    sends its next batch only after every reply to the previous one has
    arrived, as a Redis client waiting for replies would. *)

module C = Nr_kvstore.Command
module Resp = Nr_kvstore.Resp
module Model = Perfbench_core.Model

let now_ns () = Int64.to_int (Monotonic_clock.now ())

exception Dropped of string

type conn = {
  fd : Unix.file_descr;
  mutable rbuf : Bytes.t;
  mutable rlen : int;  (** unparsed reply bytes at the front of [rbuf] *)
  mutable need : int;  (** bytes to wait for before parsing again *)
}

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  { fd; rbuf = Bytes.create 65536; rlen = 0; need = 1 }

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let rec write_all fd b off len =
  if len > 0 then
    match Unix.write fd b off len with
    | n -> write_all fd b (off + n) (len - n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_all fd b off len
    | exception Unix.Unix_error (e, _, _) ->
        raise (Dropped ("write: " ^ Unix.error_message e))

let encode buf cmd = Buffer.add_string buf (Resp.encode_request (C.to_strings cmd))

(* Bytes needed before the reply at the front can be complete: a bulk
   string's header announces its length, so a megabyte reply is parsed
   once instead of once per read. *)
let needed c =
  if c.rlen > 0 && Bytes.get c.rbuf 0 = '$' then
    match Bytes.index_from_opt c.rbuf 0 '\n' with
    | Some e when e < c.rlen -> (
        match int_of_string_opt (Bytes.sub_string c.rbuf 1 (e - 2)) with
        | Some len when len >= 0 -> max (c.rlen + 1) (e + 1 + len + 2)
        | _ -> c.rlen + 1)
    | _ -> c.rlen + 1
  else c.rlen + 1

(** Read what the socket has and return the complete replies, oldest
    first. *)
let read_replies c =
  if Bytes.length c.rbuf - c.rlen < 65536 then begin
    let bigger = Bytes.create (max (2 * Bytes.length c.rbuf) (c.need + 65536)) in
    Bytes.blit c.rbuf 0 bigger 0 c.rlen;
    c.rbuf <- bigger
  end;
  let n =
    match Unix.read c.fd c.rbuf c.rlen (Bytes.length c.rbuf - c.rlen) with
    | n -> n
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> -1
    | exception Unix.Unix_error (e, _, _) ->
        raise (Dropped ("read: " ^ Unix.error_message e))
  in
  if n = 0 then raise (Dropped "connection closed by the server");
  if n > 0 then c.rlen <- c.rlen + n;
  if c.rlen < c.need then []
  else begin
    let s = Bytes.sub_string c.rbuf 0 c.rlen in
    let rec parse pos acc =
      match Resp.parse_reply ~pos s with
      | Resp.RParsed (r, used) -> parse (pos + used) (r :: acc)
      | Resp.RIncomplete -> (pos, List.rev acc)
      | Resp.RInvalid e -> raise (Dropped ("unparsable reply: " ^ e))
    in
    let pos, replies = parse 0 [] in
    Bytes.blit c.rbuf pos c.rbuf 0 (c.rlen - pos);
    c.rlen <- c.rlen - pos;
    c.need <- needed c;
    replies
  end

(** Send [cmds] and wait for their replies (set-up and checks). *)
let call ?(timeout_s = 30.) c cmds =
  let buf = Buffer.create 4096 in
  List.iter (encode buf) cmds;
  let b = Buffer.to_bytes buf in
  write_all c.fd b 0 (Bytes.length b);
  let deadline = Unix.gettimeofday () +. timeout_s in
  let want = List.length cmds in
  let rec loop got acc =
    if got >= want then List.rev acc
    else
      let left = deadline -. Unix.gettimeofday () in
      if left <= 0. then raise (Dropped "no reply by the deadline")
      else
        match Unix.select [ c.fd ] [] [] left with
        | [], _, _ -> loop got acc
        | _ ->
            let rs = read_replies c in
            loop (got + List.length rs) (List.rev_append rs acc)
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop got acc
  in
  loop 0 []

(** Connect, retrying while the server is not yet accepting, and check it
    answers PING. *)
let open_ready ~port ~timeout_s =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec go () =
    let attempt =
      match connect port with
      | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
      | c -> (
          match call ~timeout_s c [ C.Ping ] with
          | [ C.Pong ] -> Ok c
          | r ->
              close c;
              Error (String.concat " " (List.map Model.show r))
          | exception Dropped e ->
              close c;
              Error e)
    in
    match attempt with
    | Ok c -> c
    | Error _ when Unix.gettimeofday () < deadline ->
        Unix.sleepf 0.005;
        go ()
    | Error r -> raise (Dropped ("server not ready: " ^ r))
  in
  go ()


(* -- closed-loop load ------------------------------------------------ *)

(** What the load rounds of one run add up to. *)
type stats = {
  mutable latencies : int array;  (** one per latency sample, ns *)
  mutable nlat : int;
  mutable attempted : int;  (** requests checked, warm-up included *)
  mutable failed : int;
  mutable errors : string list;  (** first few failures *)
  mutable window_ns : int;  (** summed measured windows *)
  mutable batches : int;
  mutable batch_ns : int;  (** sum of measured batch round trips *)
  mutable gen_ns : int;  (** generating, checking and encoding requests *)
  mutable gen_reqs : int;
  mutable cpu_s : float;  (** this process's CPU time in measured windows *)
  mutable user_bytes : int;  (** key and value bytes of acknowledged writes *)
  sent : int array;  (** requests sent per connection, warm-up included *)
}

let stats ~conns =
  {
    latencies = Array.make 65536 0;
    nlat = 0;
    attempted = 0;
    failed = 0;
    errors = [];
    window_ns = 0;
    batches = 0;
    batch_ns = 0;
    gen_ns = 0;
    gen_reqs = 0;
    cpu_s = 0.;
    user_bytes = 0;
    sent = Array.make conns 0;
  }

type lane = {
  conn : conn;
  stream : Perfbench_core.Gen.stream;
  mconn : Model.conn;
  pending : (C.t * Model.check) Queue.t;
  mutable t0 : int;  (** send time of the batch in flight *)
  mutable sample_t0 : int;  (** send time of the latency sample's first batch *)
  mutable in_sample : int;  (** replies so far of the current sample *)
  mutable measured : bool;  (** the batch in flight was sent after warm-up *)
}

let record st ns =
  if st.nlat = Array.length st.latencies then begin
    let a = Array.make (2 * st.nlat + 1024) 0 in
    Array.blit st.latencies 0 a 0 st.nlat;
    st.latencies <- a
  end;
  st.latencies.(st.nlat) <- ns;
  st.nlat <- st.nlat + 1

let fail st msg =
  st.failed <- st.failed + 1;
  if List.length st.errors < 5 then st.errors <- msg :: st.errors

let cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(** One round: drive every connection for [warmup_s] unmeasured, then
    [seconds] measured, then let each connection finish the command group
    it is in (a MULTI block, a SET+GET pair) so the server is quiescent.
    A latency sample spans [group] consecutive requests, timed from the
    first one's batch being sent; [deadline_s] bounds any one batch's wait
    for its replies.  Returns the round's throughput: requests answered in
    the measured window per second. *)
let run st ~model ~conns ~streams ~depth ~group ~warmup_s ~seconds ~deadline_s =
  let lanes =
    Array.of_list
      (List.map2
         (fun conn (stream : Perfbench_core.Gen.stream) ->
           {
             conn;
             stream;
             mconn = Model.conn ~writer:stream.writer;
             pending = Queue.create ();
             t0 = 0;
             sample_t0 = 0;
             in_sample = 0;
             measured = false;
           })
         conns streams)
  in
  let start = now_ns () in
  let warm_end = start + int_of_float (warmup_s *. 1e9) in
  let stop = warm_end + int_of_float (seconds *. 1e9) in
  let cpu0 = ref 0. and window0 = ref 0 and last_reply = ref 0 in
  let measuring = ref false in
  let answered = ref 0 in
  let buf = Buffer.create 65536 in
  let send i l =
    let g0 = now_ns () in
    if (not !measuring) && g0 >= warm_end then begin
      measuring := true;
      cpu0 := cpu ();
      window0 := g0
    end;
    Buffer.clear buf;
    for _ = 1 to depth do
      let cmd = Perfbench_core.Gen.next l.stream in
      Queue.push (cmd, Model.send model l.mconn cmd) l.pending;
      encode buf cmd
    done;
    let b = Buffer.to_bytes buf in
    let t0 = now_ns () in
    if !measuring then begin
      st.gen_ns <- st.gen_ns + (t0 - g0);
      st.gen_reqs <- st.gen_reqs + depth
    end;
    st.sent.(i) <- st.sent.(i) + depth;
    l.t0 <- t0;
    if l.in_sample = 0 then begin
      l.sample_t0 <- t0;
      l.measured <- !measuring
    end;
    write_all l.conn.fd b 0 (Bytes.length b)
  in
  Array.iteri send lanes;
  let busy () = Array.exists (fun l -> not (Queue.is_empty l.pending)) lanes in
  while busy () do
    let fds =
      Array.fold_left
        (fun acc l -> if Queue.is_empty l.pending then acc else l.conn.fd :: acc)
        [] lanes
    in
    let oldest =
      Array.fold_left
        (fun acc l -> if Queue.is_empty l.pending then acc else min acc l.t0)
        max_int lanes
    in
    let left = (float (oldest - now_ns ()) /. 1e9) +. deadline_s in
    if left <= 0. then begin
      Array.iter
        (fun l -> Queue.iter (fun _ -> fail st "no reply by the deadline") l.pending)
        lanes;
      raise (Dropped "no reply by the deadline")
    end;
    let ready =
      match Unix.select fds [] [] left with
      | r, _, _ -> r
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
    in
    Array.iteri
      (fun i l ->
        if List.mem l.conn.fd ready then begin
          let replies = read_replies l.conn in
          let t = now_ns () in
          List.iter
            (fun r ->
              let cmd, check = Queue.pop l.pending in
              st.attempted <- st.attempted + 1;
              (match check r with
              | Ok () ->
                  st.user_bytes <- st.user_bytes + Perfbench_core.Gen.user_bytes cmd
              | Error e -> fail st e);
              if l.measured then incr answered;
              l.in_sample <- l.in_sample + 1;
              if l.in_sample = group then begin
                l.in_sample <- 0;
                if l.measured then record st (t - l.sample_t0)
              end)
            replies;
          if replies <> [] && Queue.is_empty l.pending then begin
            if l.measured then begin
              st.batches <- st.batches + 1;
              st.batch_ns <- st.batch_ns + (t - l.t0);
              last_reply := t
            end;
            if t < stop || Perfbench_core.Gen.in_group l.stream then send i l
          end
        end)
      lanes
  done;
  let window = !last_reply - !window0 in
  st.window_ns <- st.window_ns + window;
  st.cpu_s <- st.cpu_s +. (cpu () -. !cpu0);
  float !answered /. (float window /. 1e9)
