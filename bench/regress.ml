(* Perf-regression bench: a fixed deterministic sweep on the NUMA simulator
   (wall-clock timed) plus single-operation micro-benchmarks on real domains
   with allocation accounting.  Writes BENCH_nr.json at the invocation
   directory so every PR records its before/after numbers.

     dune exec bench/regress.exe              # default scale
     NR_BENCH_SCALE=quick|default|paper       # effort knob
     NR_BENCH_OUT=path.json                   # output location

   The sweep is fig5a-style (skip-list priority queue through NR, Intel
   preset, e=0) at three thread counts crossing the first node boundary,
   run at 0% and 100% updates so both the read path and the combiner/log
   path are timed.  Simulated throughput per point is deterministic — any
   change in [ops_per_us] means the simulation semantics moved, while
   [wall_ms] tracks how fast the simulator itself executes.  The domains
   micro-benchmarks report ns/op and minor-heap words/op of a combiner
   round trip, isolating NR's own allocation from the structure's. *)

open Nr_harness

type scale = {
  scale_name : string;
  population : int;
  warmup_us : float;
  measure_us : float;
  micro_iters : int;
}

let scale_of_env () =
  match Sys.getenv_opt "NR_BENCH_SCALE" with
  (* Populations are kept small relative to the measure window so that
     wall time is dominated by simulated hot-path execution, not by the
     (unmeasured, pure-OCaml) replica prepopulation in each point's
     setup — the bench gauges the machinery, not skip-list inserts. *)
  | Some "quick" ->
      {
        scale_name = "quick";
        population = 1_000;
        warmup_us = 5.0;
        measure_us = 40.0;
        micro_iters = 20_000;
      }
  | Some "paper" ->
      {
        scale_name = "paper";
        population = 20_000;
        warmup_us = 40.0;
        measure_us = 400.0;
        micro_iters = 200_000;
      }
  | Some "default" | None ->
      {
        scale_name = "default";
        population = 5_000;
        warmup_us = 20.0;
        measure_us = 150.0;
        micro_iters = 100_000;
      }
  | Some other ->
      Printf.eprintf
        "NR_BENCH_SCALE=%s not recognized (quick|default|paper); using \
         default scale\n\
         %!"
        other;
      {
        scale_name = "default";
        population = 5_000;
        warmup_us = 20.0;
        measure_us = 150.0;
        micro_iters = 100_000;
      }

(* Three points crossing the first node boundary of the Intel preset. *)
let threads_axis = [ 1; 28; 56 ]
let update_pcts = [ 0; 100 ]

let params_of scale =
  {
    Params.topo = Nr_sim.Topology.intel;
    threads = threads_axis;
    warmup_us = scale.warmup_us;
    measure_us = scale.measure_us;
    population = scale.population;
    seed = 0xA5A5;
    latency = false;
  }

type point = {
  update_pct : int;
  threads : int;
  total_ops : int;
  ops_per_us : float;
  remote_transfers : int;
}

let run_sweep scale =
  let params = params_of scale in
  let t0 = Unix.gettimeofday () in
  let points =
    List.concat_map
      (fun update_pct ->
        List.map
          (fun threads ->
            let r =
              Driver.run_sim ~topo:params.Params.topo ~threads
                ~warmup_us:params.Params.warmup_us
                ~measure_us:params.Params.measure_us
                (Exp_pq.Sl_exp.setup_black_box params Method.NR ~update_pct
                   ~e:0 ~threads)
            in
            {
              update_pct;
              threads;
              total_ops = r.Driver.total_ops;
              ops_per_us = r.Driver.ops_per_us;
              remote_transfers = r.Driver.remote_transfers;
            })
          params.Params.threads)
      update_pcts
  in
  let wall_ms = (Unix.gettimeofday () -. t0) *. 1e3 in
  (wall_ms, points)

(* --- optimistic-read sweep ----------------------------------------- *)

(* The optimistic-read headline claim, pinned: the fig5a-style pure-read
   workload with the seqlock read path on must beat the same workload with
   it off at every multi-threaded point (readers skip the rwlock slot
   acquire/release). *)

type read_point = {
  rp_label : string;
  rp_threads : int;
  rp_total_ops : int;
  rp_ops_per_us : float;
}

let read_cfgs =
  [
    ("opt-off", Nr_core.Config.default);
    ( "opt-on",
      {
        Nr_core.Config.default with
        optimistic_reads = true;
        read_patience = Some 4;
      } );
  ]

let run_read_sweep scale =
  let params = params_of scale in
  let t0 = Unix.gettimeofday () in
  let points =
    List.concat_map
      (fun (label, cfg) ->
        List.map
          (fun threads ->
            let setup rt =
              let exec =
                Exp_pq.Sl_exp.W.build rt Method.NR ~cfg ~threads
                  ~factory:(Exp_pq.Sl_exp.factory params) ()
              in
              Exp_pq.Sl_exp.body params ~update_pct:0 ~e:0 ~exec rt
            in
            let r =
              Driver.run_sim ~topo:params.Params.topo ~threads
                ~warmup_us:params.Params.warmup_us
                ~measure_us:params.Params.measure_us setup
            in
            {
              rp_label = label;
              rp_threads = threads;
              rp_total_ops = r.Driver.total_ops;
              rp_ops_per_us = r.Driver.ops_per_us;
            })
          [ 28; 56 ])
      read_cfgs
  in
  let wall_ms = (Unix.gettimeofday () -. t0) *. 1e3 in
  (wall_ms, points)

(* --- sharded update-heavy point ------------------------------------ *)

(* The sharding PR's headline claim, pinned: 100%-update uniform KV at the
   two-node thread count, plain NR vs S in {1,4}.  S=1 must match plain
   NR's op count exactly (passthrough), and S=4's throughput jumping means
   the per-shard logs are really independent. *)

type shard_point = {
  label : string;
  sp_threads : int;
  sp_total_ops : int;
  sp_ops_per_us : float;
}

let run_shard_sweep scale =
  let params = params_of scale in
  let threads = 56 in
  let t0 = Unix.gettimeofday () in
  let run ~label setup =
    let r =
      Driver.run_sim ~topo:params.Params.topo ~threads
        ~warmup_us:params.Params.warmup_us ~measure_us:params.Params.measure_us
        setup
    in
    {
      label;
      sp_threads = threads;
      sp_total_ops = r.Driver.total_ops;
      sp_ops_per_us = r.Driver.ops_per_us;
    }
  in
  let points =
    run ~label:"NR"
      (Exp_shard.setup_plain params ~multi_pct:0 ~update_pct:100 ~threads)
    :: List.map
         (fun shards ->
           run
             ~label:(Printf.sprintf "S=%d" shards)
             (Exp_shard.setup_sharded params ~shards ~multi_pct:0
                ~update_pct:100 ~threads))
         [ 1; 4 ]
  in
  let wall_ms = (Unix.gettimeofday () -. t0) *. 1e3 in
  (wall_ms, points)

(* --- durability sweep ---------------------------------------------- *)

(* The persistence layer priced hermetically: a fixed mixed op stream
   logged through the persister over the in-memory Sim_fs (no real IO, no
   temp files), one point per fsync policy.  [fsyncs] is fully
   deterministic — any drift means the group-commit semantics moved — and
   [ops_per_us] tracks the CPU cost of framing + CRC + shadow replay. *)

type durable_point = {
  dp_policy : string;
  dp_ops : int;
  dp_fsyncs : int;
  dp_ops_per_us : float;
}

let durable_policies =
  [
    Nr_persist.Aof.Always;
    Nr_persist.Aof.Every_n 8;
    Nr_persist.Aof.Every_n 64;
    Nr_persist.Aof.Never;
  ]

let run_durable_sweep scale =
  let n = max 1_000 (scale.micro_iters / 4) in
  let op i =
    if i mod 4 = 0 then
      Nr_kvstore.Command.Zadd ("z" ^ string_of_int (i mod 64), i mod 1000, i)
    else Nr_kvstore.Command.Set ("k" ^ string_of_int (i mod 512), string_of_int i)
  in
  let t0 = Unix.gettimeofday () in
  let points =
    List.map
      (fun policy ->
        let sim = Nr_persist.Sim_fs.create () in
        let fs = Nr_persist.Sim_fs.fs sim in
        (* virtual clock: one ms per append keeps every-ms policies
           deterministic too, should the axis ever grow one *)
        let clock = ref 0 in
        let now_ms () = !clock in
        match Nr_persist.Persister.create fs ~policy ~now_ms () with
        | Error e -> failwith e
        | Ok (p, _) ->
            let t0 = Unix.gettimeofday () in
            for i = 0 to n - 1 do
              incr clock;
              Nr_persist.Persister.observe p [ Some (op i) ]
            done;
            let dt_us = (Unix.gettimeofday () -. t0) *. 1e6 in
            let fsyncs = Nr_persist.Persister.fsyncs p in
            Nr_persist.Persister.close p;
            {
              dp_policy = Format.asprintf "%a" Nr_persist.Aof.pp_policy policy;
              dp_ops = n;
              dp_fsyncs = fsyncs;
              dp_ops_per_us = float_of_int n /. dt_us;
            })
      durable_policies
  in
  let wall_ms = (Unix.gettimeofday () -. t0) *. 1e3 in
  (wall_ms, points)

(* --- server front-end sweep ---------------------------------------- *)

(* The network PR's headline claim, pinned on real TCP: the evloop front
   end sustains several times more live concurrent connections than the
   pool (which fundamentally holds [workers] at a time — every other
   accepted connection waits behind them), at comparable single-client
   tail latency.

   Capacity phase: open C connections and hold every one open, send one
   PING per connection, count replies within a deadline.  The pool
   serves exactly [workers]; the evloop serves all C.  Latency phase:
   one blocking client, K sequential PINGs, RTT percentiles.  Both
   phases run against each serving mode on the same executor. *)

type server_point = {
  sv_mode : string;
  sv_workers : int;
  sv_conns_attempted : int;
  sv_conns_sustained : int;
  sv_pings : int;
  sv_p50_us : float;
  sv_p99_us : float;
}

let run_server_mode ~net ~mode_name ~conns ~pings ~workers =
  let store = Nr_kvstore.Store.create () in
  let m = Mutex.create () in
  let exec cmd =
    Mutex.lock m;
    let r = Nr_kvstore.Store.execute store cmd in
    Mutex.unlock m;
    r
  in
  let server = Nr_kvstore.Server.create ~net ~port:0 ~workers exec in
  let port = Nr_kvstore.Server.port server in
  let serve_thread = Thread.create (fun () -> Nr_kvstore.Server.serve server) () in
  Thread.delay 0.05;
  let connect () =
    let s = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.connect s (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
    s
  in
  let ping = Bytes.of_string "PING\r\n" in
  (* capacity: every connection stays open while each sends one PING *)
  let socks = Array.init conns (fun _ -> connect ()) in
  Array.iter
    (fun s ->
      Unix.set_nonblock s;
      try ignore (Unix.write s ping 0 6) with Unix.Unix_error _ -> ())
    socks;
  let served = Array.make conns false in
  let got = Array.make conns 0 in
  let buf = Bytes.create 16 in
  let deadline = Unix.gettimeofday () +. 3.0 in
  let remaining = ref conns in
  while !remaining > 0 && Unix.gettimeofday () < deadline do
    let progressed = ref false in
    Array.iteri
      (fun i s ->
        if not served.(i) then
          match Unix.read s buf 0 (7 - got.(i)) with
          | 0 -> served.(i) <- true (* closed on us: not sustained *)
          | k ->
              got.(i) <- got.(i) + k;
              progressed := true;
              if got.(i) >= 7 then begin
                served.(i) <- true;
                decr remaining
              end
          | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
            ->
              ()
          | exception Unix.Unix_error _ -> served.(i) <- true)
      socks;
    if not !progressed then Thread.delay 0.01
  done;
  let sustained = conns - !remaining in
  Array.iter (fun s -> try Unix.close s with Unix.Unix_error _ -> ()) socks;
  Thread.delay 0.05;
  (* latency: one quiet blocking client, K sequential round trips; the
     warmup absorbs one-time costs (accept, fiber spawn, first-touch).
     A single p99 draw on a shared machine swings 2-3x (scheduler and GC
     spikes land on different samples each run), so take the best of
     three trials per mode — the noise-floor estimate both modes are
     judged by equally. *)
  let latency_trial () =
    let s = connect () in
    let rtts = Array.make pings 0.0 in
    let rbuf = Bytes.create 16 in
    let round () =
      ignore (Unix.write s ping 0 6);
      let n = ref 0 in
      while !n < 7 do
        let k = Unix.read s rbuf !n (7 - !n) in
        if k = 0 then failwith "server closed mid-ping";
        n := !n + k
      done
    in
    for _ = 1 to max 20 (pings / 10) do
      round ()
    done;
    for i = 0 to pings - 1 do
      let t0 = Nr_obs.Clock.now_ns () in
      round ();
      rtts.(i) <- float_of_int (Nr_obs.Clock.elapsed_ns ~since:t0) /. 1e3
    done;
    Unix.close s;
    Array.sort compare rtts;
    let pct p =
      rtts.(min (pings - 1) (int_of_float (p *. float_of_int pings)))
    in
    (pct 0.50, pct 0.99)
  in
  let p50, p99 =
    let best = ref (latency_trial ()) in
    for _ = 2 to 3 do
      let t = latency_trial () in
      if snd t < snd !best then best := t
    done;
    !best
  in
  Nr_kvstore.Server.shutdown server;
  Thread.join serve_thread;
  {
    sv_mode = mode_name;
    sv_workers = workers;
    sv_conns_attempted = conns;
    sv_conns_sustained = sustained;
    sv_pings = pings;
    sv_p50_us = p50;
    sv_p99_us = p99;
  }

(* Open-loop phase: arrivals are clock-driven, not reply-driven.  A
   closed-loop client (like the latency phase above) can never overload
   the server — it waits for each reply before sending again, so measured
   throughput saturates at capacity and says nothing about behavior past
   it.  Here requests arrive at a fixed offered rate across a handful of
   pipelined connections regardless of how fast replies come back; when
   the server falls behind, TCP backpressure pushes EAGAIN into the
   sender and those arrivals are counted as shed.  Goodput is replies
   completed within the measurement window — the number that should stay
   near capacity (not collapse) when offered load exceeds it. *)

type open_point = {
  ol_mode : string;
  ol_rate : int;  (** offered arrivals per second *)
  ol_offered : int;
  ol_sent : int;
  ol_replies : int;
  ol_goodput_per_s : float;
}

let run_open_loop ~net ~mode_name ~rate ~duration_s ~conns ~workers =
  let store = Nr_kvstore.Store.create () in
  let m = Mutex.create () in
  let exec cmd =
    Mutex.lock m;
    let r = Nr_kvstore.Store.execute store cmd in
    Mutex.unlock m;
    r
  in
  let server = Nr_kvstore.Server.create ~net ~port:0 ~workers exec in
  let port = Nr_kvstore.Server.port server in
  let serve_thread =
    Thread.create (fun () -> Nr_kvstore.Server.serve server) ()
  in
  Thread.delay 0.05;
  let socks =
    Array.init conns (fun _ ->
        let s = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.connect s (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
        Unix.set_nonblock s;
        s)
  in
  let ping = "PING\r\n" in
  let plen = String.length ping in
  (* replies are uniform "+PONG\r\n": counting is byte arithmetic *)
  let rlen = 7 in
  let reply_bytes = Array.make conns 0 in
  let rbuf = Bytes.create 65536 in
  let drain i =
    let rec go () =
      match Unix.read socks.(i) rbuf 0 (Bytes.length rbuf) with
      | 0 -> ()
      | k ->
          reply_bytes.(i) <- reply_bytes.(i) + k;
          go ()
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          ()
    in
    go ()
  in
  let offered = ref 0 and sent = ref 0 in
  let t0 = Unix.gettimeofday () in
  let deadline = t0 +. duration_s in
  let next = ref 0 in
  let now = ref t0 in
  while !now < deadline do
    (* arrivals owed by the clock, delivered in bounded bursts *)
    let due =
      let target = int_of_float ((!now -. t0) *. float_of_int rate) in
      min (target - !offered) 256
    in
    if due > 0 then begin
      offered := !offered + due;
      let batch = Bytes.of_string (String.concat "" (List.init due (fun _ -> ping))) in
      let i = !next in
      next := (!next + 1) mod conns;
      (match Unix.write socks.(i) batch 0 (Bytes.length batch) with
      | k -> sent := !sent + (k / plen)
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          (* the pipe is full: this burst is shed, not queued *)
          ())
    end;
    for i = 0 to conns - 1 do
      drain i
    done;
    if due <= 0 then Thread.delay 0.0002;
    now := Unix.gettimeofday ()
  done;
  (* short grace: replies to requests sent inside the window still count *)
  let grace = Unix.gettimeofday () +. 0.2 in
  while Unix.gettimeofday () < grace do
    for i = 0 to conns - 1 do
      drain i
    done;
    Thread.delay 0.002
  done;
  Array.iter (fun s -> try Unix.close s with Unix.Unix_error _ -> ()) socks;
  Nr_kvstore.Server.shutdown server;
  Thread.join serve_thread;
  let replies = Array.fold_left (fun a b -> a + (b / rlen)) 0 reply_bytes in
  {
    ol_mode = mode_name;
    ol_rate = rate;
    ol_offered = !offered;
    ol_sent = !sent;
    ol_replies = replies;
    ol_goodput_per_s = float_of_int replies /. duration_s;
  }

let run_server_sweep scale =
  (* connection counts sized to the poller: the select fallback caps the
     loop below FD_SETSIZE *)
  let backend =
    let p = Nr_net.Poller.create () in
    let b = Nr_net.Poller.backend p in
    Nr_net.Poller.close p;
    b
  in
  let conns =
    match (backend, scale.scale_name) with
    | Nr_net.Poller.Select, _ -> 128
    | Nr_net.Poller.Epoll, "quick" -> 128
    | Nr_net.Poller.Epoll, _ -> 512
  in
  let pings = max 100 (scale.micro_iters / 500) in
  let workers = 4 in
  let t0 = Unix.gettimeofday () in
  let points =
    [
      run_server_mode ~net:Nr_kvstore.Server.Pool ~mode_name:"pool" ~conns
        ~pings ~workers;
      run_server_mode ~net:Nr_kvstore.Server.Evloop ~mode_name:"evloop" ~conns
        ~pings ~workers;
    ]
  in
  (* overload point: offer well past single-mutex-store capacity and see
     what each front end actually completes *)
  let rate, duration_s =
    if scale.scale_name = "quick" then (100_000, 0.4) else (250_000, 0.8)
  in
  let open_points =
    [
      run_open_loop ~net:Nr_kvstore.Server.Pool ~mode_name:"pool" ~rate
        ~duration_s ~conns:4 ~workers;
      run_open_loop ~net:Nr_kvstore.Server.Evloop ~mode_name:"evloop" ~rate
        ~duration_s ~conns:4 ~workers;
    ]
  in
  let wall_ms = (Unix.gettimeofday () -. t0) *. 1e3 in
  (wall_ms, points, open_points)

(* --- domains micro-benchmarks ------------------------------------- *)

(* A counter whose operations carry no payload: the words/op measured on
   it are NR's own combiner/log overhead plus the option boxes at the
   slot API, with no structure allocation mixed in. *)
module Counter = struct
  type t = { mutable v : int }
  type op = Incr | Get
  type result = int

  let create () = { v = 0 }

  let execute t = function
    | Incr ->
        t.v <- t.v + 1;
        t.v
    | Get -> t.v

  let is_read_only = function Get -> true | Incr -> false
  let footprint _ _ = Nr_runtime.Footprint.v ~key:0 ~reads:1 ()
  let lines _ = 4
  let pp_op ppf _ = Format.pp_print_string ppf "op"
end

type micro = { name : string; ns_per_op : float; minor_words_per_op : float }

let time_micro ~name ~iters body =
  for _ = 1 to max 1 (iters / 10) do
    body ()
  done;
  let w0 = Gc.minor_words () in
  let t0 = Nr_obs.Clock.now_ns () in
  for _ = 1 to iters do
    body ()
  done;
  let dt = Nr_obs.Clock.elapsed_ns ~since:t0 in
  let dw = Gc.minor_words () -. w0 in
  {
    name;
    ns_per_op = float_of_int dt /. float_of_int iters;
    minor_words_per_op = dw /. float_of_int iters;
  }

let run_micros scale =
  let topo = Nr_sim.Topology.tiny in
  let rt = Nr_runtime.Runtime_domains.make topo in
  let module R = (val rt) in
  Nr_runtime.Runtime_domains.register ~tid:0;
  let module Nr_ctr = Nr_core.Node_replication.Make (R) (Counter) in
  let ctr = Nr_ctr.create (fun () -> Counter.create ()) in
  let m1 =
    time_micro ~name:"nr-counter-update" ~iters:scale.micro_iters (fun () ->
        ignore (Nr_ctr.execute ctr Counter.Incr))
  in
  let m2 =
    time_micro ~name:"nr-counter-read" ~iters:scale.micro_iters (fun () ->
        ignore (Nr_ctr.execute ctr Counter.Get))
  in
  let module Nr_pq = Nr_core.Node_replication.Make (R) (Nr_seqds.Skiplist_pq) in
  let nr_pq = Nr_pq.create (fun () -> Nr_seqds.Skiplist_pq.create ()) in
  let rng = Nr_workload.Prng.create ~seed:42 in
  let m3 =
    time_micro ~name:"nr-skiplist-pq-pair" ~iters:(scale.micro_iters / 4)
      (fun () ->
        ignore
          (Nr_pq.execute nr_pq
             (Nr_seqds.Pq_ops.Insert (Nr_workload.Prng.below rng 100_000, 1)));
        ignore (Nr_pq.execute nr_pq Nr_seqds.Pq_ops.Delete_min))
  in
  [ m1; m2; m3 ]

(* --- JSON emission (hand-rolled; the repo has no JSON dependency) -- *)

(* One level of history: if the output file already holds a previous run,
   embed it (minus its own [previous]) so a single file shows the
   before/after of the latest change.  The marker is stable because this
   program always writes [previous] last. *)
let strip_previous s =
  let marker = ",\n  \"previous\":" in
  let mlen = String.length marker in
  let n = String.length s in
  let rec find i =
    if i + mlen > n then None
    else if String.sub s i mlen = marker then Some i
    else find (i + 1)
  in
  match find 0 with
  | Some i -> String.trim (String.sub s 0 i) ^ "\n}"
  | None -> String.trim s

let read_file path =
  if Sys.file_exists path then (
    let ic = open_in_bin path in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    Some s)
  else None

let emit ~out ~scale ~wall_ms ~points ~read_wall_ms ~read_points
    ~shard_wall_ms ~shard_points ~durable_wall_ms ~durable_points
    ~server_wall_ms ~server_points ~open_points ~micros =
  let buf = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "{\n";
  add "  \"schema\": \"nr-regress/6\",\n";
  add "  \"scale\": %S,\n" scale.scale_name;
  add "  \"sim_sweep\": {\n";
  add
    "    \"workload\": \"fig5a-style skip-list PQ via NR, Intel preset, \
     e=0, update_pct in {0,100}\",\n";
  add "    \"seed\": %d,\n" (params_of scale).Params.seed;
  add "    \"wall_ms\": %.1f,\n" wall_ms;
  add "    \"points\": [\n";
  List.iteri
    (fun i p ->
      add
        "      {\"update_pct\": %d, \"threads\": %d, \"total_ops\": %d, \
         \"ops_per_us\": %.4f, \"remote_transfers\": %d}%s\n"
        p.update_pct p.threads p.total_ops p.ops_per_us p.remote_transfers
        (if i = List.length points - 1 then "" else ","))
    points;
  add "    ]\n";
  add "  },\n";
  add "  \"read_sweep\": {\n";
  add
    "    \"workload\": \"fig5a-style skip-list PQ, 0%% updates, Intel \
     preset, seqlock read path off/on\",\n";
  add "    \"wall_ms\": %.1f,\n" read_wall_ms;
  add "    \"points\": [\n";
  List.iteri
    (fun i p ->
      add
        "      {\"series\": %S, \"threads\": %d, \"total_ops\": %d, \
         \"ops_per_us\": %.4f}%s\n"
        p.rp_label p.rp_threads p.rp_total_ops p.rp_ops_per_us
        (if i = List.length read_points - 1 then "" else ","))
    read_points;
  add "    ]\n";
  add "  },\n";
  add "  \"shard_sweep\": {\n";
  add
    "    \"workload\": \"100%% updates, uniform KV, Intel preset, plain NR \
     vs sharded S in {1,4}\",\n";
  add "    \"wall_ms\": %.1f,\n" shard_wall_ms;
  add "    \"points\": [\n";
  List.iteri
    (fun i p ->
      add
        "      {\"series\": %S, \"threads\": %d, \"total_ops\": %d, \
         \"ops_per_us\": %.4f}%s\n"
        p.label p.sp_threads p.sp_total_ops p.sp_ops_per_us
        (if i = List.length shard_points - 1 then "" else ","))
    shard_points;
  add "    ]\n";
  add "  },\n";
  add "  \"durable_sweep\": {\n";
  add
    "    \"workload\": \"mixed SET/ZADD stream through the persister over \
     Sim_fs, one point per fsync policy\",\n";
  add "    \"wall_ms\": %.1f,\n" durable_wall_ms;
  add "    \"points\": [\n";
  List.iteri
    (fun i p ->
      add
        "      {\"policy\": %S, \"ops\": %d, \"fsyncs\": %d, \"ops_per_us\": \
         %.4f}%s\n"
        p.dp_policy p.dp_ops p.dp_fsyncs p.dp_ops_per_us
        (if i = List.length durable_points - 1 then "" else ","))
    durable_points;
  add "    ]\n";
  add "  },\n";
  add "  \"server_sweep\": {\n";
  add
    "    \"workload\": \"real-TCP PING front end: capacity (connections \
     held open, one PING each, replies within deadline) and single-client \
     RTT percentiles, pool vs evloop\",\n";
  add "    \"wall_ms\": %.1f,\n" server_wall_ms;
  add "    \"points\": [\n";
  List.iteri
    (fun i p ->
      add
        "      {\"mode\": %S, \"workers\": %d, \"conns_attempted\": %d, \
         \"conns_sustained\": %d, \"pings\": %d, \"p50_us\": %.1f, \
         \"p99_us\": %.1f}%s\n"
        p.sv_mode p.sv_workers p.sv_conns_attempted p.sv_conns_sustained
        p.sv_pings p.sv_p50_us p.sv_p99_us
        (if i = List.length server_points - 1 then "" else ","))
    server_points;
  add "    ],\n";
  add
    "    \"open_loop\": [\n";
  List.iteri
    (fun i p ->
      add
        "      {\"mode\": %S, \"offered_per_s\": %d, \"offered\": %d, \
         \"sent\": %d, \"replies\": %d, \"goodput_per_s\": %.0f}%s\n"
        p.ol_mode p.ol_rate p.ol_offered p.ol_sent p.ol_replies
        p.ol_goodput_per_s
        (if i = List.length open_points - 1 then "" else ","))
    open_points;
  add "    ]\n";
  add "  },\n";
  add "  \"domains_micro\": [\n";
  List.iteri
    (fun i m ->
      add
        "    {\"name\": %S, \"ns_per_op\": %.1f, \"minor_words_per_op\": \
         %.2f}%s\n"
        m.name m.ns_per_op m.minor_words_per_op
        (if i = List.length micros - 1 then "" else ","))
    micros;
  add "  ]";
  (match read_file out with
  | Some old ->
      add ",\n  \"previous\": ";
      (* indent is cosmetic; embed the stripped object verbatim *)
      add "%s" (strip_previous old);
      add "\n"
  | None -> add "\n");
  add "}\n";
  let oc = open_out_bin out in
  output_string oc (Buffer.contents buf);
  close_out oc

let () =
  let scale = scale_of_env () in
  let out =
    match Sys.getenv_opt "NR_BENCH_OUT" with
    | Some p -> p
    | None -> "BENCH_nr.json"
  in
  Format.printf "# NR perf-regression bench (scale %s)@." scale.scale_name;
  let wall_ms, points = run_sweep scale in
  Format.printf "sim sweep: %.1f ms wall@." wall_ms;
  List.iter
    (fun p ->
      Format.printf "  upd=%3d%% threads=%3d  %8.4f ops/us  (%d ops)@."
        p.update_pct p.threads p.ops_per_us p.total_ops)
    points;
  let read_wall_ms, read_points = run_read_sweep scale in
  Format.printf "read sweep: %.1f ms wall@." read_wall_ms;
  List.iter
    (fun p ->
      Format.printf "  %-8s threads=%3d  %8.4f ops/us  (%d ops)@." p.rp_label
        p.rp_threads p.rp_ops_per_us p.rp_total_ops)
    read_points;
  let shard_wall_ms, shard_points = run_shard_sweep scale in
  Format.printf "shard sweep: %.1f ms wall@." shard_wall_ms;
  List.iter
    (fun p ->
      Format.printf "  %-5s threads=%3d  %8.4f ops/us  (%d ops)@." p.label
        p.sp_threads p.sp_ops_per_us p.sp_total_ops)
    shard_points;
  let durable_wall_ms, durable_points = run_durable_sweep scale in
  Format.printf "durable sweep: %.1f ms wall@." durable_wall_ms;
  List.iter
    (fun p ->
      Format.printf "  %-12s %8.4f ops/us  (%d ops, %d fsyncs)@." p.dp_policy
        p.dp_ops_per_us p.dp_ops p.dp_fsyncs)
    durable_points;
  let server_wall_ms, server_points, open_points = run_server_sweep scale in
  Format.printf "server sweep: %.1f ms wall@." server_wall_ms;
  List.iter
    (fun p ->
      Format.printf
        "  %-7s workers=%d  sustained %d/%d conns  p50 %.1f us  p99 %.1f us@."
        p.sv_mode p.sv_workers p.sv_conns_sustained p.sv_conns_attempted
        p.sv_p50_us p.sv_p99_us)
    server_points;
  List.iter
    (fun p ->
      Format.printf
        "  %-7s open-loop @%d/s  offered %d  sent %d  replies %d  goodput \
         %.0f/s@."
        p.ol_mode p.ol_rate p.ol_offered p.ol_sent p.ol_replies
        p.ol_goodput_per_s)
    open_points;
  let micros = run_micros scale in
  List.iter
    (fun m ->
      Format.printf "  %-22s %8.1f ns/op  %8.2f minor words/op@." m.name
        m.ns_per_op m.minor_words_per_op)
    micros;
  emit ~out ~scale ~wall_ms ~points ~read_wall_ms ~read_points ~shard_wall_ms
    ~shard_points ~durable_wall_ms ~durable_points ~server_wall_ms
    ~server_points ~open_points ~micros;
  Format.printf "wrote %s@." out
