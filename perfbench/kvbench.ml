(* kvbench: the repository's end-to-end benchmark.  It spawns the real
   kv_server, drives it over loopback TCP with seeded RESP command streams,
   checks every reply, and prints each metric by name and unit; the last
   line of stdout is one JSON object.  See perfbench/README.md.

     bash perfbench/run.sh --workload kv-mixed --seed 1 --seconds 30 --trace 0

   With --trace 1 the same stream is also replayed in-process through each
   layer, and the per-layer metrics are printed instead. *)

module C = Nr_kvstore.Command
module Gen = Perfbench_core.Gen
module Model = Perfbench_core.Model
module Pct = Perfbench_core.Pct

(* A run is [rounds] rounds, each on a fresh server: set up (spawn,
   preload), drive the load, check, SIGKILL, restart [restarts] times.
   Fresh servers make every round start from the same state: a server kept
   running drifts, because the NR log holds every logged value until it
   wraps (65536 entries) and the heap grows with it all run long.  Run
   figures are medians of the rounds, so a busy spell of the host that
   slows a few rounds does not move them. *)
let rounds = 10
let restarts = 3
let warmup_s = 0.5
let deadline_s = 20.0  (* longest wait for one batch's replies *)
let spawn_timeout_s = 30.0

(* where run.sh builds the server, relative to the checkout root *)
let server_exe = "_build/default/bin/kv_server.exe"
let replay_max_reqs = 50_000  (* per connection *)
let replay_max_bytes = 32 lsl 20

exception Check_failed of string

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let secs_since t0 = float (Client.now_ns () - t0) /. 1e9

type server = { proc : Proc.t; conns : Client.conn list }

let server_args spec ~nproc ~dir =
  [ "--port"; "0"; "--workers"; string_of_int nproc ]
  @
  match dir with
  | Some d -> [ "--aof"; d; "--snapshot-every"; string_of_int spec.Gen.snapshot_every ]
  | None -> []

let start ~spec ~nproc ~dir ~stderr_path ~conns =
  let proc =
    Proc.spawn ~exe:server_exe ~args:(server_args spec ~nproc ~dir) ~stderr_path
      ~timeout_s:spawn_timeout_s
  in
  let conns =
    List.init conns (fun _ ->
        Client.open_ready ~port:proc.Proc.port ~timeout_s:spawn_timeout_s)
  in
  { proc; conns }

let stop s =
  List.iter Client.close s.conns;
  Proc.kill s.proc

(* a dropped connection or a missed deadline, with the server's side *)
let dropped s why =
  Check_failed
    (Printf.sprintf "%s (server %s); server stderr:\n%s" why
       (if Proc.alive s.proc then "still running" else "exited")
       (Proc.stderr_tail s.proc))

(* Preload on the first connection one request at a time, checking every
   reply: pipelining would stall on the default front end and inflate
   set-up time.  Returns the key and value bytes written. *)
let preload s model spec =
  let c = List.hd s.conns in
  let mc = Model.conn ~writer:(Model.preload_writer model) in
  List.fold_left
    (fun bytes cmd ->
      let check = Model.send model mc cmd in
      match Client.call c [ cmd ] with
      | [ r ] -> (
          match check r with
          | Ok () -> bytes + Gen.user_bytes cmd
          | Error e -> raise (Check_failed ("preload: " ^ e)))
      | _ -> raise (Check_failed "preload: reply count")
      | exception Client.Dropped why -> raise (dropped s why))
    0 (Gen.preload spec)

type outcome = {
  metrics : (string * float * string) list;  (** name, value, unit *)
  notes : string list;  (** human-readable lines *)
  attempted : int;
  failed : int;
  errors : string list;
}

let run ~spec ~seed ~seconds ~traced ~work =
  let nproc = Domain.recommended_domain_count () in
  if spec.Gen.conns > nproc then
    raise
      (Check_failed
         (Printf.sprintf "%s needs %d connections but nproc is %d" spec.name
            spec.conns nproc));
  let notes = ref [] in
  let note fmt = Printf.ksprintf (fun s -> notes := s :: !notes) fmt in
  let st = Client.stats ~conns:spec.conns in
  let streams = Gen.streams spec ~seed in
  let sample = Gen.durability_sample spec in
  let setup_s = ref [] and recovery_s = ref [] and rss = ref [] in
  let throughput = ref [] and p50_us = ref [] and aof_ratio = ref [] in
  for round = 0 to rounds - 1 do
    let dir =
      if spec.aof then Some (Filename.concat work (Printf.sprintf "aof-%d" round))
      else None
    in
    let stderr_path k =
      Filename.concat work (Printf.sprintf "server-%d-%d.stderr" round k)
    in
    let t0 = Client.now_ns () in
    let s = start ~spec ~nproc ~dir ~stderr_path:(stderr_path 0) ~conns:spec.conns in
    let model = Model.create ~writers:spec.conns in
    let preload_bytes = preload s model spec in
    setup_s := secs_since t0 :: !setup_s;
    let bytes0 = st.user_bytes and nlat0 = st.nlat in
    (match
       Client.run st ~model ~conns:s.conns ~streams ~depth:spec.depth
         ~group:spec.group ~warmup_s ~seconds:(seconds /. float rounds) ~deadline_s
     with
    | ops_s -> throughput := ops_s :: !throughput
    | exception Client.Dropped why -> raise (dropped s why));
    if st.nlat = nlat0 then raise (Check_failed "no request completed in a measured window");
    let lat = Array.sub st.latencies nlat0 (st.nlat - nlat0) in
    Array.sort compare lat;
    p50_us := (float (Pct.of_sorted lat 50) /. 1e3) :: !p50_us;
    (* quiescent: every reply is in; let the short TTLs expire and be
       evicted, then read what must survive a crash *)
    let before =
      if spec.aof then begin
        Unix.sleepf (float (Gen.max_ttl_ms + 150) /. 1000.);
        try Client.call (List.hd s.conns) (C.Dbsize :: sample)
        with Client.Dropped why -> raise (dropped s why)
      end
      else []
    in
    rss := Proc.peak_rss_mb s.proc :: !rss;
    Option.iter
      (fun d ->
        aof_ratio :=
          float (Proc.dir_bytes d) /. float (preload_bytes + st.user_bytes - bytes0)
          :: !aof_ratio)
      dir;
    stop s;
    (* the restarts of a round recover the same files: their fastest is
       the round's recovery time, the others differ only by noise *)
    let fastest = ref infinity in
    for k = 1 to restarts do
      let t0 = Client.now_ns () in
      let r = start ~spec ~nproc ~dir ~stderr_path:(stderr_path k) ~conns:1 in
      fastest := Float.min !fastest (secs_since t0);
      let after =
        if spec.aof then
          try Client.call (List.hd r.conns) (C.Dbsize :: sample)
          with Client.Dropped why -> raise (dropped r why)
        else []
      in
      stop r;
      if after <> before then
        raise
          (Check_failed
             ("durability: replies differ after a SIGKILL restart: "
             ^ String.concat "; "
                 (List.filteri
                    (fun i _ -> i < 4)
                    (List.filter_map
                       (fun (a, b) ->
                         if a = b then None
                         else Some (Model.show a ^ " -> " ^ Model.show b))
                       (List.combine before after)))))
    done;
    recovery_s := !fastest :: !recovery_s;
    Option.iter Proc.rm_rf dir
  done;
  let lat = Array.sub st.latencies 0 st.nlat in
  Array.sort compare lat;
  let tail = Option.value (Pct.tail (Array.length lat)) ~default:50 in
  let range xs =
    Printf.sprintf "%.1f .. %.1f" (List.fold_left min infinity xs)
      (List.fold_left max neg_infinity xs)
  in
  note "%d rounds on fresh servers, %d connection(s), pipeline depth %d, closed loop"
    rounds spec.conns spec.depth;
  note "throughput and p50 are medians of the rounds (%s ops/s, %s us)"
    (range !throughput) (range !p50_us);
  note "latency: %d samples of %d request(s) each; tail.p99_us reports p%d of all of them (the highest with >= %d samples beyond)"
    (Array.length lat) spec.group tail Pct.min_beyond;
  if spec.aof then begin
    note "AOF: fsync policy every-n:32 (the default), --snapshot-every %d; %.4f bytes in the AOF directory per user byte written (median of rounds)"
      spec.snapshot_every (median !aof_ratio);
    note "durability: DBSIZE and %d sampled keys identical after each of %d SIGKILL restarts per round"
      (List.length sample) restarts
  end;
  let metrics =
    if not traced then
      [
        ("throughput_ops_s", median !throughput, "ops/s");
        ("p50_us", median !p50_us, "us");
        ("ok_frac", float (st.attempted - st.failed) /. float st.attempted, "frac");
        ("setup_s", median !setup_s, "s");
        ("server_peak_rss_mb", median !rss, "MiB");
      ]
    else begin
      (* the first requests of each connection's stream, as sent *)
      let batches =
        Array.of_list
          (List.mapi
             (fun i stream ->
               let limit = min st.sent.(i) replay_max_reqs in
               let budget = replay_max_bytes / spec.conns in
               let rec take n bytes acc =
                 if n >= limit || bytes >= budget then Array.of_list (List.rev acc)
                 else begin
                   let b = Buffer.create 4096 in
                   for _ = 1 to spec.depth do
                     Client.encode b (Gen.next stream)
                   done;
                   take (n + spec.depth) (bytes + Buffer.length b)
                     (Buffer.contents b :: acc)
                 end
               in
               take 0 0 [])
             (Gen.streams spec ~seed))
      in
      let rp =
        Replay.run ~batches ~dir:(Filename.concat work "replay")
          ~trace_path:(Filename.concat work "trace.json")
      in
      (* the tail and the restart time do not repeat within a tenth from
         run to run, so they are reported here rather than gated *)
      ("tail.p99_us", float (Pct.of_sorted lat tail) /. 1e3, "us")
      :: ("restart.recovery_s", median !recovery_s, "s")
      :: Layers.metrics ~spec ~st ~rp ~note:(fun s -> notes := s :: !notes)
    end
  in
  {
    metrics;
    notes = List.rev !notes;
    attempted = st.attempted;
    failed = st.failed;
    errors = List.rev st.errors;
  }

let json_number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v
  else failwith "non-finite metric"

let print_result ~spec o ~correct =
  List.iter (fun n -> Printf.printf "%s  # %s\n" spec.Gen.name n) o.notes;
  List.iter
    (fun (n, v, u) -> Printf.printf "%s  %-32s %14.4f %s\n" spec.Gen.name n v u)
    o.metrics;
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct o.attempted o.failed
    (String.concat ", "
       (List.map
          (fun (n, v, u) ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n (json_number v) u)
          o.metrics))

let () =
  (* leave through [exit], so the servers still running are killed *)
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 130)))
    [ Sys.sigint; Sys.sigterm ];
  let workload = ref "" and seed = ref 1 and seconds = ref 20 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME kv-mixed, kv-durable, kv-large-values or all");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_int seconds, "S measured seconds per workload");
      ("--trace", Arg.Set_int trace, "0|1 1: per-layer metrics from a traced replay");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "kvbench --workload NAME --seed N --seconds S --trace 0|1";
  let specs =
    if !workload = "all" then Gen.specs
    else
      match Gen.find !workload with
      | Some s -> [ s ]
      | None ->
          prerr_endline ("kvbench: unknown workload " ^ !workload);
          exit 2
  in
  if not (Sys.file_exists server_exe) then begin
    prerr_endline ("kvbench: no kv_server at " ^ server_exe);
    exit 2
  end;
  let ok =
    List.fold_left
      (fun ok spec ->
        (* server stderr, AOF directories and the trace, under the
           directory the benchmark is run from *)
        let work =
          Filename.concat "_perfbench"
            (Printf.sprintf "%s-seed%d-trace%d" spec.Gen.name !seed !trace)
        in
        Proc.rm_rf work;
        Proc.mkdir_p work;
        match
          run ~spec ~seed:!seed ~seconds:(float !seconds)
            ~traced:(!trace = 1) ~work
        with
        | o ->
            let correct = o.failed = 0 in
            List.iter
              (fun e -> Printf.eprintf "%s: reply check failed: %s\n" spec.name e)
              o.errors;
            print_result ~spec o ~correct;
            if correct then begin
              (* keep only the trace *)
              Array.iter
                (fun f -> if f <> "trace.json" then Proc.rm_rf (Filename.concat work f))
                (Sys.readdir work);
              if Sys.readdir work = [||] then Proc.rm_rf work
            end;
            ok && correct
        | exception Check_failed m ->
            Printf.eprintf "%s: FAILED: %s\n(logs kept in %s)\n%!" spec.name m work;
            false)
      true specs
  in
  exit (if ok then 0 else 1)
