(** A RESP-speaking TCP front end.  Two serving modes share the parsing,
    execution and observability layers:

    - [Pool] (the default, the paper's §7 shape): blocking sockets, one
      worker-pool job per connection.  Caps concurrent connections at the
      pool size and sheds the excess with BUSY errors.
    - [Evloop]: an epoll readiness event loop running one lightweight
      fiber per connection (nonblocking sockets, pipelined RESP parsing,
      batched reply writes), with parsed request batches executed on
      per-node work-stealing run queues.  One process sustains thousands
      of connections with [workers] executor domains.

    Every parsed command goes through a caller-supplied executor, so the
    same server runs over an NR-wrapped store, a lock-wrapped store, or a
    bare one.  Server-local commands (replication SYNC/PSYNC,
    observability) can be intercepted by an optional [special] handler
    before they reach the executor.

    The paper bypasses the RPC layer when measuring (§8.3) — this server
    exists for the runnable example and the open-loop server bench, not
    for the simulator benchmarks. *)

type net = Pool | Evloop

type session_hook =
  exec:(Command.t -> Command.reply) ->
  clock:(unit -> int) ->
  Command.t ->
  Command.reply option
(** Per-connection command interceptor, created once per connection and
    consulted before the executor: [Some r] answers the command itself
    (MULTI queueing, WATCH bookkeeping, EXPIRE normalization…), [None]
    hands it through untouched.  [exec] runs a command on the server's
    normal path (the session uses it for WATCH stamp reads and for the
    compound entry EXEC submits); [clock] is the server's millisecond
    clock.  The hook lives above the store, so the fast path for
    connections with no session state is one [passthrough] test. *)

type stats = {
  accept_errors : int;
      (** transient accept failures survived (EMFILE/ECONNABORTED bursts) *)
  emfile_backoffs : int;  (** accept pauses forced by fd exhaustion *)
  ev_conns : int;  (** evloop: connections accepted *)
  ev_batches : int;  (** evloop: request batches submitted *)
  ev_requests : int;  (** evloop: pipelined requests executed *)
}

type t = {
  sock : Unix.file_descr;
  net : net;
  pool : Thread_pool.t option;  (* Pool mode *)
  ev : Nr_net.Evloop.t option;  (* Evloop mode *)
  sched : Nr_net.Sched.t option;  (* Evloop mode *)
  nodes : int;
  exec : Command.t -> Command.reply;
  special : (Command.t -> Command.reply option) option;
  session : session_hook option;
  clock : unit -> int;
  obs : Kv_obs.t option;
  mutable stop : bool;
  mutable shut : bool;  (* shutdown already ran (idempotence) *)
  (* connection registry for pool-mode shutdown: long-lived handlers (a
     follower's replication link stays open for the server's whole life)
     block in [Unix.read]; joining the pool without first breaking those
     reads deadlocks shutdown.  [conns] tracks every live client socket
     and [inflight] counts replies mid-write, so shutdown can drain the
     writes, then shut the sockets down to unblock the reads.  (The
     evloop tracks its own connections.) *)
  conns_mutex : Mutex.t;
  conns : (Unix.file_descr, unit) Hashtbl.t;
  mutable inflight : int;
  (* stats (mutated from the accept loop / evloop fibers) *)
  mutable accept_errors : int;
  mutable ev_batches : int;
  mutable ev_requests : int;
  mutable next_node : int;  (* evloop: round-robin connection → node *)
}

(* SLOWLOG and friends are answered here, not by the replicated store;
   everything else is timed around the executor when observability is on. *)
let run_command t cmd =
  match
    match t.special with Some f -> f cmd | None -> None
  with
  | Some reply -> reply
  | None -> (
      match t.obs with
      | None -> t.exec cmd
      | Some obs -> (
          match cmd with
          | Command.Slowlog_get -> Kv_obs.slowlog_reply obs
          | Command.Slowlog_len ->
              Command.Int (Nr_obs.Slowlog.length (Kv_obs.slowlog obs))
          | Command.Slowlog_reset ->
              Nr_obs.Slowlog.reset (Kv_obs.slowlog obs);
              Command.Ok_reply
          | cmd ->
              let t0 = Nr_obs.Clock.now_ns () in
              let reply = t.exec cmd in
              Kv_obs.observe obs cmd
                ~duration_ns:(Nr_obs.Clock.elapsed_ns ~since:t0);
              reply))

(* Instantiate the per-connection session (if the server has one) and
   compose it in front of [run_command].  Connections that never touch
   session state pay one predicate call per command. *)
let conn_exec t =
  match t.session with
  | None -> fun cmd -> run_command t cmd
  | Some hook ->
      let sess = hook ~exec:(run_command t) ~clock:t.clock in
      fun cmd ->
        (match sess cmd with Some r -> r | None -> run_command t cmd)

(* Run one decoded request.  An executor exception becomes an error reply
   for that request alone: the connection (and, in evloop mode, the
   executor domain) carries on. *)
let exec_guarded exec = function
  | Ok cmd -> (
      try exec cmd
      with e ->
        Command.Err (Printf.sprintf "internal error: %s" (Printexc.to_string e)))
  | Error e -> Command.Err e

(* Replies can be far larger than one [Unix.write] accepts (snapshot
   streams, shipped frame batches): loop until every byte is out.
   A zero-byte return must be retried, not treated as done — stopping
   there silently truncates the reply mid-frame — and EINTR must not
   kill the connection.  Any other error is real and raises.  [?write]
   exists so tests can inject short/zero/EINTR writes deterministically. *)
let write_all ?(write = Unix.write) fd bytes =
  let len = Bytes.length bytes in
  let rec go off =
    if off < len then
      match write fd bytes off (len - off) with
      | 0 ->
          (* no progress but no error either (never observed from TCP
             sockets, but the API allows it): yield and retry *)
          Thread.yield ();
          go off
      | n -> go (off + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0

let register_conn t client =
  Mutex.lock t.conns_mutex;
  let accepted = not t.stop in
  if accepted then Hashtbl.replace t.conns client ();
  Mutex.unlock t.conns_mutex;
  accepted

let deregister_conn t client =
  Mutex.lock t.conns_mutex;
  Hashtbl.remove t.conns client;
  Mutex.unlock t.conns_mutex

(* Bracket a reply write so shutdown can wait for in-flight replies —
   a streaming reply is never cut off mid-frame by closing the socket
   under it. *)
let send_reply t client reply =
  Mutex.lock t.conns_mutex;
  t.inflight <- t.inflight + 1;
  Mutex.unlock t.conns_mutex;
  let finally () =
    Mutex.lock t.conns_mutex;
    t.inflight <- t.inflight - 1;
    Mutex.unlock t.conns_mutex
  in
  match
    let buf = Buffer.create 64 in
    Resp.encode_reply_buf buf reply;
    write_all client (Buffer.to_bytes buf)
  with
  | () -> finally ()
  | exception e ->
      finally ();
      raise e

(* Parse every complete request in [data] starting at 0, via the offset
   API — one pass, no per-request buffer rebuild.  Returns the consumed
   prefix length; on a protocol error the remaining input is garbage and
   the connection must close. *)
let handle_connection t client =
  if not (register_conn t client) then begin
    try Unix.close client with Unix.Unix_error _ -> ()
  end
  else begin
    let buf = Buffer.create 256 in
    let chunk = Bytes.create 4096 in
    let exec = conn_exec t in
    let rec serve () =
      (* parse as many complete requests as the buffer holds: O(total)
         over a pipelined burst — the cursor walks [data] once and the
         buffer is compacted once per read, not once per request *)
      let data = Buffer.contents buf in
      let len = String.length data in
      let rec drain pos =
        match Resp.parse_request ~pos data with
        | Resp.Parsed (tokens, consumed) ->
            send_reply t client (exec_guarded exec (Command.of_strings tokens));
            drain (pos + consumed)
        | Resp.Incomplete -> Some pos
        | Resp.Invalid e ->
            send_reply t client (Command.Err e);
            None
      in
      match drain 0 with
      | None -> ()
      | Some pos ->
          if pos > 0 then begin
            Buffer.clear buf;
            Buffer.add_substring buf data pos (len - pos)
          end;
          let n = Unix.read client chunk 0 (Bytes.length chunk) in
          if n > 0 then begin
            Buffer.add_subbytes buf chunk 0 n;
            serve ()
          end
    in
    Fun.protect
      ~finally:(fun () ->
        deregister_conn t client;
        try Unix.close client with Unix.Unix_error _ -> ())
      (fun () -> try serve () with Unix.Unix_error _ | End_of_file -> ())
  end

(* --- evloop mode ---------------------------------------------------- *)

(* One fiber per connection: read a chunk, parse every complete pipelined
   request, submit the whole batch to the connection's home node's run
   queue as one job, await the replies, write them back in one batch.
   Same-node batches execute back-to-back on one executor domain, so the
   network layer feeds NR's flat combiner aligned bursts.

   Latency fast path: a lone command arriving while the run queues are
   empty executes inline on the loop thread (run to completion) instead
   of paying the two cross-domain wakeups that dominate a quiet-server
   round trip.  Only store-bound commands qualify — server-local ones
   must never stall the loop (WAIT blocks for its timeout, SYNC streams
   a snapshot) — and any backlog means the batch path's ordering and
   combiner alignment matter more than the hop. *)
let handle_connection_ev t sched ev ~node client =
  let buf = Buffer.create 1024 in
  let chunk = Bytes.create 8192 in
  let out = Buffer.create 1024 in
  (* the session is only ever stepped by one job at a time: the fiber
     awaits a batch's replies before parsing more of the connection *)
  let exec_one = exec_guarded (conn_exec t) in
  let submit_and_reply reqs =
    let cmds = Array.of_list (List.map Command.of_strings reqs) in
    let fast =
      Array.length cmds = 1
      && (match cmds.(0) with
         | Ok c -> not (Command.is_server_local c)
         | Error _ -> true)
      && Nr_net.Sched.backlog sched = 0
    in
    let replies =
      if fast then Array.map exec_one cmds
      else begin
        let p = Nr_net.Evloop.promise () in
        (* the job must fulfil on every path or the fiber parks forever *)
        Nr_net.Sched.submit sched ~node (fun () ->
            Nr_net.Evloop.fulfill ev p (Array.map exec_one cmds));
        t.ev_batches <- t.ev_batches + 1;
        Nr_net.Evloop.await p
      end
    in
    t.ev_requests <- t.ev_requests + Array.length cmds;
    Buffer.clear out;
    Array.iter (Resp.encode_reply_buf out) replies;
    Nr_net.Evloop.write_all client (Buffer.to_bytes out)
  in
  let rec serve () =
    let n = Nr_net.Evloop.read client chunk 0 (Bytes.length chunk) in
    if n > 0 then begin
      Buffer.add_subbytes buf chunk 0 n;
      let data = Buffer.contents buf in
      let len = String.length data in
      let rec collect pos acc =
        match Resp.parse_request ~pos data with
        | Resp.Parsed (tokens, consumed) ->
            collect (pos + consumed) (tokens :: acc)
        | Resp.Incomplete -> Ok (pos, List.rev acc)
        | Resp.Invalid e -> Error (List.rev acc, e)
      in
      match collect 0 [] with
      | Ok (pos, reqs) ->
          if pos > 0 then begin
            Buffer.clear buf;
            Buffer.add_substring buf data pos (len - pos)
          end;
          if reqs <> [] then submit_and_reply reqs;
          serve ()
      | Error (reqs, e) ->
          (* answer the parsed prefix, report the protocol error, close *)
          if reqs <> [] then submit_and_reply reqs;
          Buffer.clear out;
          Resp.encode_reply_buf out (Command.Err e);
          Nr_net.Evloop.write_all client (Buffer.to_bytes out)
    end
  in
  serve ()

(* --- lifecycle ------------------------------------------------------ *)

let create ?obs ?special ?session ?(clock = fun () -> 0) ?(net = Pool)
    ?(nodes = 1) ~port ~workers exec =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt sock Unix.SO_REUSEADDR true;
  Unix.bind sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.listen sock (match net with Pool -> 64 | Evloop -> 512);
  let pool, ev, sched =
    match net with
    | Pool -> (Some (Thread_pool.create ~workers ()), None, None)
    | Evloop ->
        ( None,
          Some (Nr_net.Evloop.create ()),
          Some
            (Nr_net.Sched.create ~seed:0x5EED ~domains:workers
               ~nodes:(max 1 nodes) ()) )
  in
  {
    sock;
    net;
    pool;
    ev;
    sched;
    nodes = max 1 nodes;
    exec;
    special;
    session;
    clock;
    obs;
    stop = false;
    shut = false;
    conns_mutex = Mutex.create ();
    conns = Hashtbl.create 16;
    inflight = 0;
    accept_errors = 0;
    ev_batches = 0;
    ev_requests = 0;
    next_node = 0;
  }

let obs t = t.obs

let pool_stats t =
  match t.pool with
  | Some p -> Thread_pool.stats p
  | None -> { Thread_pool.executed = 0; failed = 0; rejected = 0 }

let sched_stats t = Option.map Nr_net.Sched.stats t.sched

let stats t =
  let ev_conns, emfile =
    match t.ev with
    | Some ev ->
        let s = Nr_net.Evloop.stats ev in
        (s.Nr_net.Evloop.accepted, s.Nr_net.Evloop.emfile_backoffs)
    | None -> (0, 0)
  in
  let ev_errors =
    match t.ev with
    | Some ev -> (Nr_net.Evloop.stats ev).Nr_net.Evloop.accept_errors
    | None -> 0
  in
  {
    accept_errors = t.accept_errors + ev_errors;
    emfile_backoffs = emfile;
    ev_conns;
    ev_batches = t.ev_batches;
    ev_requests = t.ev_requests;
  }

let port t =
  match Unix.getsockname t.sock with
  | Unix.ADDR_INET (_, p) -> p
  | Unix.ADDR_UNIX _ -> invalid_arg "Server.port: unix socket"

(* What the accept loop does with an accept error.  EBADF/EINVAL mean the
   listening socket was closed under us: stop.  fd exhaustion heals only
   if existing connections get CPU to finish, so back off; everything
   else (ECONNABORTED, a peer vanishing mid-handshake, transient
   ENOBUFS/ENOMEM/EPERM bursts) is the peer's problem, not a reason to
   kill [serve]. *)
let accept_error_policy : Unix.error -> [ `Stop | `Ignore | `Backoff of float ]
    = function
  | Unix.EBADF | Unix.EINVAL -> `Stop
  | Unix.EINTR -> `Ignore
  | Unix.EMFILE | Unix.ENFILE -> `Backoff 0.05
  | _ -> `Ignore

(** Accept loop; returns when {!shutdown} is called from another thread. *)
let serve_pool t pool =
  while not t.stop do
    match Unix.accept t.sock with
    | client, _ ->
        if t.stop then (try Unix.close client with Unix.Unix_error _ -> ())
        else if
          not (Thread_pool.try_submit pool (fun () -> handle_connection t client))
        then begin
          (* saturated pool: shed the connection with an explicit error
             instead of stalling the accept loop behind slow handlers *)
          let out =
            Bytes.of_string
              (Resp.encode_reply (Command.Err "BUSY server overloaded"))
          in
          (try ignore (Unix.write client out 0 (Bytes.length out))
           with Unix.Unix_error _ -> ());
          try Unix.close client with Unix.Unix_error _ -> ()
        end
    | exception Unix.Unix_error (err, _, _) -> (
        match accept_error_policy err with
        | `Stop -> t.stop <- true
        | `Ignore -> if err <> Unix.EINTR then t.accept_errors <- t.accept_errors + 1
        | `Backoff delay ->
            t.accept_errors <- t.accept_errors + 1;
            Thread.delay delay)
  done

let serve t =
  match (t.net, t.pool, t.ev, t.sched) with
  | Pool, Some pool, _, _ -> serve_pool t pool
  | Evloop, _, Some ev, Some sched ->
      Nr_net.Evloop.run ev ~listen:t.sock
        ~handler:(fun client ->
          let node = t.next_node in
          t.next_node <- (t.next_node + 1) mod t.nodes;
          handle_connection_ev t sched ev ~node client)
  | _ -> assert false

let shutdown t =
  let first =
    Mutex.lock t.conns_mutex;
    let f = not t.shut in
    t.shut <- true;
    t.stop <- true;
    Mutex.unlock t.conns_mutex;
    f
  in
  if first then
    match t.net with
    | Evloop ->
        (match t.ev with Some ev -> Nr_net.Evloop.stop ev | None -> ());
        (try Unix.close t.sock with Unix.Unix_error _ -> ());
        (match t.sched with Some s -> Nr_net.Sched.shutdown s | None -> ())
    | Pool ->
        let p = try Some (port t) with Invalid_argument _ -> None in
        (* closing a listening socket does not reliably wake a blocked
           accept(); poke it with a throwaway connection first *)
        (match p with
        | Some p -> (
            try
              let s = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
              (try
                 Unix.connect s (Unix.ADDR_INET (Unix.inet_addr_loopback, p))
               with Unix.Unix_error _ -> ());
              Unix.close s
            with Unix.Unix_error _ -> ())
        | None -> ());
        (try Unix.close t.sock with Unix.Unix_error _ -> ());
        (* drain in-flight replies (bounded wait: a reply stuck on a dead
           peer must not wedge shutdown), then break every lingering
           connection's blocked read so its handler can exit — otherwise
           joining the pool deadlocks behind a follower's long-lived
           replication link *)
        let deadline = Unix.gettimeofday () +. 2.0 in
        let rec wait_drained () =
          Mutex.lock t.conns_mutex;
          let busy = t.inflight > 0 in
          if busy && Unix.gettimeofday () < deadline then begin
            Mutex.unlock t.conns_mutex;
            Thread.yield ();
            wait_drained ()
          end
          else begin
            (* still holding the mutex: no new reply can begin (stop is
               set and registration is refused), so the sweep below is
               complete *)
            Hashtbl.iter
              (fun fd () ->
                try Unix.shutdown fd Unix.SHUTDOWN_ALL
                with Unix.Unix_error _ -> ())
              t.conns;
            Mutex.unlock t.conns_mutex
          end
        in
        wait_drained ();
        (match t.pool with Some p -> Thread_pool.shutdown p | None -> ())
