(* Network front-end tests: the Chase–Lev run-queue deque, the seeded
   work-stealing scheduler, the four server bugfix regressions
   (write_all truncation, O(n^2) pipelining, accept-error policy,
   double shutdown), hostile bulk lengths and raising executors in both
   serving modes, the evloop serving mode end-to-end — including a
   1k-concurrent-connection smoke and a linearizability check of
   histories recorded through the evloop — and the pool-mode golden
   reply bytes the evloop must reproduce. *)

open Nr_kvstore
module Deque = Nr_net.Deque
module Sched = Nr_net.Sched
module Evloop = Nr_net.Evloop

(* --- deque ---------------------------------------------------------- *)

let test_deque_basic () =
  let d = Deque.create ~size_exp:4 () in
  Alcotest.(check bool) "empty" true (Deque.is_empty d);
  Alcotest.(check int) "capacity" 16 (Deque.capacity d);
  Alcotest.(check bool) "push 1" true (Deque.push d 1);
  Alcotest.(check bool) "push 2" true (Deque.push d 2);
  Alcotest.(check bool) "push 3" true (Deque.push d 3);
  Alcotest.(check int) "length" 3 (Deque.length d);
  (* owner pops LIFO *)
  Alcotest.(check (option int)) "pop lifo" (Some 3) (Deque.pop d);
  (* thieves steal FIFO *)
  Alcotest.(check (option int)) "steal fifo" (Some 1) (Deque.steal d);
  Alcotest.(check (option int)) "pop last" (Some 2) (Deque.pop d);
  Alcotest.(check (option int)) "pop empty" None (Deque.pop d);
  Alcotest.(check (option int)) "steal empty" None (Deque.steal d)

let test_deque_full () =
  let d = Deque.create ~size_exp:2 () in
  for i = 1 to 4 do
    Alcotest.(check bool) (Printf.sprintf "push %d" i) true (Deque.push d i)
  done;
  Alcotest.(check bool) "push refused at capacity" false (Deque.push d 5);
  ignore (Deque.steal d);
  Alcotest.(check bool) "push after steal" true (Deque.push d 5)

(* A taken job must not stay reachable from the ring: a job is a closure
   over its batch's commands and replies, and a slot that kept it would
   pin them until the ring wrapped around. *)
let push_tracked_job d w =
  let payload = Bytes.make 64 'x' in
  Weak.set w 0 (Some payload);
  ignore (Deque.push d (fun () -> Bytes.length payload))
[@@inline never]

let test_deque_steal_releases_job () =
  let d = Deque.create ~size_exp:4 () in
  let w = Weak.create 1 in
  push_tracked_job d w;
  (match Deque.steal d with
  | Some job -> Alcotest.(check int) "stolen job runs" 64 (job ())
  | None -> Alcotest.fail "steal found nothing");
  Gc.full_major ();
  Alcotest.(check bool) "stolen job unreachable" false (Weak.check w 0);
  (* the deque itself must outlive the collection, or the check is void *)
  Alcotest.(check bool) "deque drained" true (Deque.is_empty d)

(* Sequential model check: against a reference deque, any interleaving of
   owner pushes/pops and (single-threaded) steals agrees. *)
let deque_model_test =
  QCheck.Test.make ~name:"deque sequential model" ~count:300
    QCheck.(list (int_range 0 2))
    (fun script ->
      let d = Deque.create ~size_exp:8 () in
      let model = ref [] in
      (* model: list with head = bottom (owner end), tail = top *)
      let next = ref 0 in
      List.for_all
        (fun action ->
          match action with
          | 0 ->
              incr next;
              let pushed = Deque.push d !next in
              if pushed then model := !next :: !model;
              pushed || List.length !model >= 256
          | 1 -> (
              let got = Deque.pop d in
              match (!model, got) with
              | [], None -> true
              | x :: tl, Some y when x = y ->
                  model := tl;
                  true
              | _ -> false)
          | _ -> (
              let got = Deque.steal d in
              match (List.rev !model, got) with
              | [], None -> true
              | x :: tl, Some y when x = y ->
                  model := List.rev tl;
                  true
              | _ -> false))
        script)

(* Concurrency: one owner pushing + popping, several thieves stealing;
   every pushed value is consumed exactly once. *)
let test_deque_concurrent_steal () =
  let d = Deque.create ~size_exp:10 () in
  let n = 20_000 in
  let thieves = 3 in
  let stop = Atomic.make false in
  let stolen = Array.init thieves (fun _ -> ref []) in
  let thief slot () =
    while not (Atomic.get stop) do
      match Deque.steal d with
      | Some v -> slot := v :: !slot
      | None -> Domain.cpu_relax ()
    done;
    (* final sweep so nothing is left behind *)
    let rec sweep () =
      match Deque.steal d with
      | Some v ->
          slot := v :: !slot;
          sweep ()
      | None -> ()
    in
    sweep ()
  in
  let doms = Array.init thieves (fun i -> Domain.spawn (thief stolen.(i))) in
  let popped = ref [] in
  let i = ref 1 in
  while !i <= n do
    if Deque.push d !i then incr i else Domain.cpu_relax ();
    (* owner occasionally takes from its own end too *)
    if !i mod 7 = 0 then
      match Deque.pop d with
      | Some v -> popped := v :: !popped
      | None -> ()
  done;
  Atomic.set stop true;
  Array.iter Domain.join doms;
  let all =
    List.concat (!popped :: Array.to_list (Array.map (fun r -> !r) stolen))
  in
  Alcotest.(check int) "every value consumed exactly once" n (List.length all);
  let sorted = List.sort compare all in
  let expected = List.init n (fun i -> i + 1) in
  Alcotest.(check bool) "no duplicates, no losses" true (sorted = expected)

(* --- scheduler ------------------------------------------------------ *)

let test_sched_runs_jobs () =
  let s = Sched.create ~domains:2 ~nodes:2 () in
  let hits = Atomic.make 0 in
  for i = 0 to 99 do
    Sched.submit s ~node:(i mod 2) (fun () -> Atomic.incr hits)
  done;
  (* one raising job: counted as failed, worker survives *)
  Sched.submit s ~node:0 (fun () -> failwith "boom");
  Sched.submit s ~node:0 (fun () -> Atomic.incr hits);
  Sched.shutdown s;
  Alcotest.(check int) "all jobs ran" 101 (Atomic.get hits);
  let st = Sched.stats s in
  Alcotest.(check int) "executed" 102 st.Sched.executed;
  Alcotest.(check int) "failed" 1 st.Sched.failed

let test_sched_shutdown_idempotent () =
  let s = Sched.create ~domains:2 ~nodes:1 () in
  Sched.submit s ~node:0 (fun () -> ());
  Sched.shutdown s;
  Sched.shutdown s;
  (* concurrent double shutdown from fresh domains must not raise either *)
  let s2 = Sched.create ~domains:1 ~nodes:1 () in
  let d1 = Domain.spawn (fun () -> Sched.shutdown s2) in
  let d2 = Domain.spawn (fun () -> Sched.shutdown s2) in
  Domain.join d1;
  Domain.join d2;
  Alcotest.(check bool) "submit refused after shutdown" true
    (match Sched.submit s ~node:0 (fun () -> ()) with
    | () -> false
    | exception Invalid_argument _ -> true)

(* Determinism: with ~autostart:false every submission lands before any
   worker moves, so a single worker's execution order — home queue first,
   then steals in the seeded victim rotation — is a pure function of the
   seed.  Same seed, same order; and jobs on foreign nodes are stolen. *)
let run_sched_schedule ~seed =
  let s =
    Sched.create ~seed ~autostart:false ~domains:1 ~nodes:3 ()
  in
  let order = ref [] in
  let m = Mutex.create () in
  for i = 0 to 29 do
    Sched.submit s ~node:(i mod 3) (fun () ->
        Mutex.lock m;
        order := i :: !order;
        Mutex.unlock m)
  done;
  Sched.start s;
  Sched.shutdown s;
  let st = Sched.stats s in
  (List.rev !order, st.Sched.stolen)

let test_sched_deterministic_steals () =
  let o1, stolen1 = run_sched_schedule ~seed:42 in
  let o2, stolen2 = run_sched_schedule ~seed:42 in
  Alcotest.(check (list int)) "same seed, same execution order" o1 o2;
  Alcotest.(check int) "same seed, same steal count" stolen1 stolen2;
  Alcotest.(check int) "every job ran" 30 (List.length o1);
  Alcotest.(check bool) "foreign-node jobs were stolen" true (stolen1 > 0)

(* --- write_all (reply truncation regression) ------------------------ *)

(* The old write_all treated a 0-byte write as completion and let EINTR
   kill the connection.  Drive the new one with an injected write that
   exercises short writes, a zero-byte return and EINTR, and assert the
   whole buffer still goes out, in order. *)
let test_write_all_injected () =
  let sent = Buffer.create 64 in
  let step = ref 0 in
  let script = [| 3; -1 (* EINTR *); 0 (* no progress *); 5; 100 |] in
  let fake_write _fd bytes off len =
    let action =
      if !step < Array.length script then script.(!step) else max_int
    in
    incr step;
    match action with
    | -1 -> raise (Unix.Unix_error (Unix.EINTR, "write", ""))
    | k ->
        let n = min (min k len) 7 in
        (* cap so the tail takes several calls *)
        let n = if k = 100 then min len 7 else n in
        Buffer.add_subbytes sent bytes off n;
        n
  in
  let payload = Bytes.init 64 (fun i -> Char.chr (65 + (i mod 26))) in
  Server.write_all ~write:fake_write Unix.stdout payload;
  Alcotest.(check string) "all bytes, in order" (Bytes.to_string payload)
    (Buffer.contents sent);
  Alcotest.(check bool) "zero-byte write was retried" true (!step > 5)

let test_write_all_raises_on_real_error () =
  let fake_write _ _ _ _ = raise (Unix.Unix_error (Unix.EPIPE, "write", "")) in
  Alcotest.(check bool) "EPIPE propagates" true
    (match Server.write_all ~write:fake_write Unix.stdout (Bytes.create 8) with
    | () -> false
    | exception Unix.Unix_error (Unix.EPIPE, _, _) -> true)

(* Same bug through a real kernel path: a socketpair with a tiny send
   buffer forces many short writes; a slow reader drains.  Every byte
   must arrive, in order. *)
let test_write_all_tiny_sndbuf () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.setsockopt_int a Unix.SO_SNDBUF 4096
   with Unix.Unix_error _ -> ());
  let n = 1 lsl 20 in
  let payload = Bytes.init n (fun i -> Char.chr (i land 0xff)) in
  let received = Buffer.create n in
  let reader =
    Thread.create
      (fun () ->
        let chunk = Bytes.create 8192 in
        let rec go () =
          let k = Unix.read b chunk 0 8192 in
          if k > 0 then begin
            Buffer.add_subbytes received chunk 0 k;
            (* keep the writer bumping into a full buffer *)
            if Buffer.length received mod 65536 < 8192 then Thread.delay 0.001;
            go ()
          end
        in
        (try go () with Unix.Unix_error _ -> ());
        Unix.close b)
      ()
  in
  Server.write_all a payload;
  Unix.shutdown a Unix.SHUTDOWN_SEND;
  Thread.join reader;
  Unix.close a;
  Alcotest.(check int) "length" n (Buffer.length received);
  Alcotest.(check bool) "content identical" true
    (Buffer.contents received = Bytes.to_string payload)

(* --- accept-error policy -------------------------------------------- *)

let test_accept_error_policy () =
  let check name err expect =
    Alcotest.(check bool) name true (Server.accept_error_policy err = expect)
  in
  check "EBADF stops" Unix.EBADF `Stop;
  check "EINVAL stops" Unix.EINVAL `Stop;
  check "EMFILE backs off" Unix.EMFILE (`Backoff 0.05);
  check "ENFILE backs off" Unix.ENFILE (`Backoff 0.05);
  check "ECONNABORTED survived" Unix.ECONNABORTED `Ignore;
  check "ENOBUFS survived" Unix.ENOBUFS `Ignore;
  check "EINTR survived" Unix.EINTR `Ignore

(* --- server helpers ------------------------------------------------- *)

let with_server ?obs ?(net = Server.Pool) ?(nodes = 1) ?(workers = 2) exec f =
  let server = Server.create ?obs ~net ~nodes ~port:0 ~workers exec in
  let port = Server.port server in
  let serve_thread = Thread.create (fun () -> Server.serve server) () in
  Fun.protect
    ~finally:(fun () ->
      Server.shutdown server;
      Thread.join serve_thread)
    (fun () -> f server port)

let connect port =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  sock

let read_exactly sock n =
  let buf = Bytes.create n in
  let rec go off =
    if off < n then begin
      let k = Unix.read sock buf off (n - off) in
      if k = 0 then failwith "unexpected EOF";
      go (off + k)
    end
  in
  go 0;
  Bytes.to_string buf

let store_exec () =
  let store = Store.create () in
  let m = Mutex.create () in
  fun cmd ->
    Mutex.lock m;
    let r = Store.execute store cmd in
    Mutex.unlock m;
    r

(* --- O(n^2) pipelining regression ----------------------------------- *)

(* 10k INCRs pipelined in one burst: replies must come back complete and
   in submission order (:1 ... :10000).  Before the fix the drain loop
   rebuilt the buffer per request (quadratic) and could truncate replies. *)
let pipelined_burst_expected n =
  let b = Buffer.create (n * 8) in
  for i = 1 to n do
    Buffer.add_string b (Printf.sprintf ":%d\r\n" i)
  done;
  Buffer.contents b

let run_pipelined_burst ~net () =
  let n = 10_000 in
  with_server ~net (store_exec ()) (fun _server port ->
      let sock = connect port in
      let req = Buffer.create (n * 32) in
      for _ = 1 to n do
        Buffer.add_string req (Resp.encode_request [ "INCR"; "ctr" ])
      done;
      let payload = Bytes.of_string (Buffer.contents req) in
      let expected = pipelined_burst_expected n in
      (* reply reader runs concurrently so neither side's socket buffer
         deadlocks the burst *)
      let got = ref "" in
      let reader =
        Thread.create
          (fun () -> got := read_exactly sock (String.length expected))
          ()
      in
      Server.write_all sock payload;
      Thread.join reader;
      Unix.close sock;
      Alcotest.(check int) "reply byte count" (String.length expected)
        (String.length !got);
      Alcotest.(check bool) "replies complete and in order" true
        (!got = expected))

let test_pipelined_burst_pool () = run_pipelined_burst ~net:Server.Pool ()
let test_pipelined_burst_evloop () = run_pipelined_burst ~net:Server.Evloop ()

(* --- double shutdown ------------------------------------------------ *)

let test_thread_pool_double_shutdown () =
  let pool = Thread_pool.create ~workers:2 () in
  let hits = Atomic.make 0 in
  Thread_pool.submit pool (fun () -> Atomic.incr hits);
  Thread_pool.shutdown pool;
  (* second call must be a no-op, not a double Domain.join *)
  Thread_pool.shutdown pool;
  (* concurrent callers: one joins, the other waits *)
  let pool2 = Thread_pool.create ~workers:2 () in
  let d1 = Domain.spawn (fun () -> Thread_pool.shutdown pool2) in
  let d2 = Domain.spawn (fun () -> Thread_pool.shutdown pool2) in
  Domain.join d1;
  Domain.join d2;
  Alcotest.(check int) "job ran before close" 1 (Atomic.get hits)

let run_server_double_shutdown ~net () =
  let server = Server.create ~net ~port:0 ~workers:2 (fun _ -> Command.Pong) in
  let port = Server.port server in
  let serve_thread = Thread.create (fun () -> Server.serve server) () in
  let sock = connect port in
  let out = Bytes.of_string (Resp.encode_request [ "PING" ]) in
  Server.write_all sock out;
  Alcotest.(check string) "served before shutdown" "+PONG\r\n"
    (read_exactly sock 7);
  Server.shutdown server;
  Server.shutdown server;
  (* and once more from another domain, racing nothing *)
  let d = Domain.spawn (fun () -> Server.shutdown server) in
  Domain.join d;
  Thread.join serve_thread;
  Unix.close sock

let test_server_double_shutdown_pool () =
  run_server_double_shutdown ~net:Server.Pool ()

let test_server_double_shutdown_evloop () =
  run_server_double_shutdown ~net:Server.Evloop ()

(* --- evloop end-to-end ---------------------------------------------- *)

let test_evloop_basic_commands () =
  with_server ~net:Server.Evloop (store_exec ()) (fun _server port ->
      let sock = connect port in
      Server.write_all sock (Bytes.of_string (Resp.encode_request [ "PING" ]));
      Alcotest.(check string) "pong" "+PONG\r\n" (read_exactly sock 7);
      Server.write_all sock
        (Bytes.of_string (Resp.encode_request [ "SET"; "k"; "v" ]));
      Alcotest.(check string) "set" "+OK\r\n" (read_exactly sock 5);
      Server.write_all sock
        (Bytes.of_string (Resp.encode_request [ "GET"; "k" ]));
      Alcotest.(check string) "get" "$1\r\nv\r\n" (read_exactly sock 7);
      Unix.close sock)

(* A protocol error mid-stream: the parsed prefix is answered, the error
   is reported, and the connection closes. *)
let test_evloop_protocol_error_closes () =
  with_server ~net:Server.Evloop (store_exec ()) (fun _server port ->
      let sock = connect port in
      Server.write_all sock
        (Bytes.of_string (Resp.encode_request [ "PING" ] ^ "*1\r\n:nope\r\n"));
      Alcotest.(check string) "prefix answered" "+PONG\r\n"
        (read_exactly sock 7);
      let buf = Bytes.create 256 in
      let n = Unix.read sock buf 0 256 in
      let reply = Bytes.sub_string buf 0 n in
      Alcotest.(check bool) "protocol error reported" true
        (String.length reply >= 4 && String.sub reply 0 4 = "-ERR");
      (* then EOF *)
      Alcotest.(check int) "closed" 0 (Unix.read sock buf 0 256);
      Unix.close sock)

(* Many concurrent connections, all alive at once, each answered.  This
   is what the pool fundamentally cannot do (it holds [workers]
   connections) and the reason the evloop exists.  Sized to the poller:
   1k+ needs epoll; under the select fallback stay below FD_SETSIZE. *)
let test_evloop_concurrent_connections () =
  with_server ~net:Server.Evloop ~workers:2
    (fun _ -> Command.Pong)
    (fun server port ->
      (* size by poller backend: 1k+ concurrent fds needs epoll; the
         select fallback caps the whole loop at FD_SETSIZE *)
      let n =
        let p = Nr_net.Poller.create () in
        let b = Nr_net.Poller.backend p in
        Nr_net.Poller.close p;
        match b with Nr_net.Poller.Epoll -> 1000 | Nr_net.Poller.Select -> 200
      in
      let socks = Array.init n (fun _ -> connect port) in
      (* every socket connected and held open simultaneously *)
      Array.iter
        (fun s ->
          Server.write_all s (Bytes.of_string (Resp.encode_request [ "PING" ])))
        socks;
      Array.iter
        (fun s ->
          Alcotest.(check string) "pong" "+PONG\r\n" (read_exactly s 7))
        socks;
      let st = Server.stats server in
      Alcotest.(check bool)
        (Printf.sprintf "accepted all (%d)" st.Server.ev_conns)
        true
        (st.Server.ev_conns >= n);
      Array.iter Unix.close socks)

(* --- linearizability through the evloop ----------------------------- *)

(* Four client threads hammer two keys through the evloop front end over
   real TCP; each records (invocation ns, reply, return ns).  The merged
   history must be linearizable against the sequential KV spec — the
   batched scheduler path must not reorder a connection's requests or
   lose a write. *)
let test_evloop_lincheck () =
  let module H = Nr_check.History in
  let module W = Nr_check.Wgl.Make (Nr_check.Spec.Kv) in
  with_server ~net:Server.Evloop ~nodes:2 (store_exec ()) (fun _server port ->
      let nthreads = 4 in
      let per_thread = 40 in
      let recs = Array.make nthreads [] in
      let clients =
        Array.init nthreads (fun tid ->
            Thread.create
              (fun () ->
                let rng = Random.State.make [| 0xC0FFEE + tid |] in
                let sock = connect port in
                let events = ref [] in
                for i = 0 to per_thread - 1 do
                  let key =
                    if Random.State.bool rng then "x" else "y"
                  in
                  let cmd =
                    match Random.State.int rng 4 with
                    | 0 -> Command.Get key
                    | 1 ->
                        Command.Set (key, Printf.sprintf "t%d.%d" tid i)
                    | 2 -> Command.Del key
                    | _ -> Command.Exists key
                  in
                  let inv = Nr_obs.Clock.now_ns () in
                  Server.write_all sock
                    (Bytes.of_string
                       (Resp.encode_request (Command.to_strings cmd)));
                  (* read exactly one reply *)
                  let b = Buffer.create 64 in
                  let chunk = Bytes.create 256 in
                  let rec read_reply () =
                    match Resp.parse_reply (Buffer.contents b) with
                    | Resp.RParsed (reply, _) -> reply
                    | Resp.RIncomplete ->
                        let k = Unix.read sock chunk 0 256 in
                        if k = 0 then failwith "EOF mid-reply";
                        Buffer.add_subbytes b chunk 0 k;
                        read_reply ()
                    | Resp.RInvalid m -> failwith m
                  in
                  let reply = read_reply () in
                  let ret = Nr_obs.Clock.now_ns () in
                  events :=
                    { H.tid; op = cmd; inv; res = Some reply; ret } :: !events
                done;
                Unix.close sock;
                recs.(tid) <- List.rev !events)
              ())
      in
      Array.iter Thread.join clients;
      let h = H.create () in
      Array.iter (fun evs -> List.iter (fun e -> H.push h e) evs) recs;
      match W.check ~budget:5_000_000 (H.events h) with
      | W.Linearizable -> ()
      | W.Violation _ -> Alcotest.fail "evloop history not linearizable"
      | W.Budget_exhausted -> Alcotest.fail "lincheck budget exhausted")

(* --- hostile input and failing executors, both modes ----------------- *)

(* Every read below times out instead of blocking, so a server that
   leaks the connection fails the test rather than hanging it. *)
let connect_timed port =
  let sock = connect port in
  Unix.setsockopt_float sock Unix.SO_RCVTIMEO 5.0;
  sock

(* A bulk length near [max_int] must not wrap the parser's bound check
   into an out-of-range index: it is a protocol error, answered with
   [-ERR] before the connection closes. *)
let run_huge_bulk_len ~net () =
  with_server ~net (store_exec ()) (fun _server port ->
      let sock = connect_timed port in
      Server.write_all sock (Bytes.of_string "*1\r\n$4611686018427387903\r\n");
      let buf = Bytes.create 256 in
      let n = Unix.read sock buf 0 256 in
      Alcotest.(check bool) "protocol error reported" true
        (n >= 4 && Bytes.sub_string buf 0 4 = "-ERR");
      Alcotest.(check int) "closed" 0 (Unix.read sock buf 0 256);
      Unix.close sock)

let test_huge_bulk_len_pool () = run_huge_bulk_len ~net:Server.Pool ()
let test_huge_bulk_len_evloop () = run_huge_bulk_len ~net:Server.Evloop ()

(* An executor that raises answers that one request with [-ERR] and
   keeps serving the connection. *)
let run_executor_exception ~net () =
  let exec = function
    | Command.Get "boom" -> failwith "boom"
    | _ -> Command.Pong
  in
  with_server ~net exec (fun _server port ->
      let sock = connect_timed port in
      Server.write_all sock
        (Bytes.of_string (Resp.encode_request [ "GET"; "boom" ]));
      let expected = "-ERR internal error: Failure(\"boom\")\r\n" in
      Alcotest.(check string) "error reply" expected
        (read_exactly sock (String.length expected));
      Server.write_all sock (Bytes.of_string (Resp.encode_request [ "PING" ]));
      Alcotest.(check string) "still serving" "+PONG\r\n"
        (read_exactly sock 7);
      Unix.close sock)

let test_executor_exception_pool () = run_executor_exception ~net:Server.Pool ()

let test_executor_exception_evloop () =
  run_executor_exception ~net:Server.Evloop ()

(* --- golden reply bytes: pool pinned, evloop identical -------------- *)

(* The scripted workload's exact reply bytes through the pool path — the
   zero-overhead guard that this PR left the default mode untouched —
   and the requirement that the evloop produces the same bytes for the
   same script. *)
let golden_script =
  [
    [ "PING" ];
    [ "SET"; "k"; "hello" ];
    [ "GET"; "k" ];
    [ "EXISTS"; "k" ];
    [ "INCR"; "n" ];
    [ "INCRBY"; "n"; "41" ];
    [ "MSET"; "a"; "1"; "b"; "2" ];
    [ "MGET"; "a"; "b"; "missing" ];
    [ "ZADD"; "z"; "10"; "7" ];
    [ "ZRANK"; "z"; "7" ];
    [ "DEL"; "k" ];
    [ "GET"; "k" ];
    [ "DBSIZE" ];
    [ "NOSUCH" ];
  ]

let golden_expected =
  "+PONG\r\n" ^ "+OK\r\n" ^ "$5\r\nhello\r\n" ^ ":1\r\n" ^ ":1\r\n" ^ ":42\r\n"
  ^ "+OK\r\n" ^ "*3\r\n$1\r\n1\r\n$1\r\n2\r\n$-1\r\n" ^ ":1\r\n" ^ ":0\r\n"
  ^ ":1\r\n" ^ "$-1\r\n" ^ ":4\r\n" ^ "-ERR unknown command \"nosuch\"\r\n"

let run_golden ~net () =
  with_server ~net (store_exec ()) (fun _server port ->
      let sock = connect port in
      let req = String.concat "" (List.map Resp.encode_request golden_script) in
      Server.write_all sock (Bytes.of_string req);
      let got = read_exactly sock (String.length golden_expected) in
      Unix.close sock;
      Alcotest.(check string) "reply bytes" golden_expected got)

let test_golden_pool () = run_golden ~net:Server.Pool ()
let test_golden_evloop () = run_golden ~net:Server.Evloop ()

let suite =
  [
    Alcotest.test_case "deque basic" `Quick test_deque_basic;
    Alcotest.test_case "deque full" `Quick test_deque_full;
    Alcotest.test_case "deque steal releases the job" `Quick
      test_deque_steal_releases_job;
    QCheck_alcotest.to_alcotest deque_model_test;
    Alcotest.test_case "deque concurrent steal" `Slow
      test_deque_concurrent_steal;
    Alcotest.test_case "sched runs jobs" `Slow test_sched_runs_jobs;
    Alcotest.test_case "sched shutdown idempotent" `Slow
      test_sched_shutdown_idempotent;
    Alcotest.test_case "sched deterministic steal schedule" `Slow
      test_sched_deterministic_steals;
    Alcotest.test_case "write_all injected short/zero/EINTR" `Quick
      test_write_all_injected;
    Alcotest.test_case "write_all raises on real error" `Quick
      test_write_all_raises_on_real_error;
    Alcotest.test_case "write_all tiny SNDBUF" `Slow test_write_all_tiny_sndbuf;
    Alcotest.test_case "accept error policy" `Quick test_accept_error_policy;
    Alcotest.test_case "pipelined burst in order (pool)" `Slow
      test_pipelined_burst_pool;
    Alcotest.test_case "pipelined burst in order (evloop)" `Slow
      test_pipelined_burst_evloop;
    Alcotest.test_case "thread pool double shutdown" `Slow
      test_thread_pool_double_shutdown;
    Alcotest.test_case "server double shutdown (pool)" `Slow
      test_server_double_shutdown_pool;
    Alcotest.test_case "server double shutdown (evloop)" `Slow
      test_server_double_shutdown_evloop;
    Alcotest.test_case "evloop basic commands" `Slow test_evloop_basic_commands;
    Alcotest.test_case "evloop protocol error closes" `Slow
      test_evloop_protocol_error_closes;
    Alcotest.test_case "evloop 1k concurrent connections" `Slow
      test_evloop_concurrent_connections;
    Alcotest.test_case "evloop linearizability" `Slow test_evloop_lincheck;
    Alcotest.test_case "huge bulk length rejected (pool)" `Slow
      test_huge_bulk_len_pool;
    Alcotest.test_case "huge bulk length rejected (evloop)" `Slow
      test_huge_bulk_len_evloop;
    Alcotest.test_case "executor exception answered (pool)" `Slow
      test_executor_exception_pool;
    Alcotest.test_case "executor exception answered (evloop)" `Slow
      test_executor_exception_evloop;
    Alcotest.test_case "golden reply bytes (pool pinned)" `Slow
      test_golden_pool;
    Alcotest.test_case "golden reply bytes (evloop identical)" `Slow
      test_golden_evloop;
  ]
