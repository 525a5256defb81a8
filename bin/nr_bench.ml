(* nr-bench: regenerate the paper's tables and figures on the NUMA
   simulator, with custom parameters, plus Bechamel micro-benchmarks of
   each figure family's kernel operation on real domains.

     dune exec bin/nr_bench.exe                  # every figure group
     dune exec bin/nr_bench.exe -- list
     dune exec bin/nr_bench.exe -- run fig5 --scale quick
     dune exec bin/nr_bench.exe -- run fig7 fig8 --population 100000 \
         --threads 1,28,56,112 --measure-us 200
     dune exec bin/nr_bench.exe -- run fig11 --topology amd
     dune exec bin/nr_bench.exe -- micro
     NR_BENCH_SCALE=quick|default|paper          # --scale default *)

open Cmdliner
open Nr_harness

let topology_conv =
  let parse = function
    | "intel" -> Ok Nr_sim.Topology.intel
    | "amd" -> Ok Nr_sim.Topology.amd
    | "tiny" -> Ok Nr_sim.Topology.tiny
    | s -> Error (`Msg (Printf.sprintf "unknown topology %S (intel|amd|tiny)" s))
  in
  Arg.conv (parse, fun ppf t -> Nr_sim.Topology.pp ppf t)

let threads_conv =
  let parse s =
    try
      Ok
        (String.split_on_char ',' s
        |> List.filter (fun x -> x <> "")
        |> List.map int_of_string)
    with Failure _ -> Error (`Msg "expected comma-separated thread counts")
  in
  Arg.conv
    (parse, fun ppf l ->
      Format.pp_print_string ppf
        (String.concat "," (List.map string_of_int l)))

let scale_conv =
  let parse = function
    | "quick" -> Ok Params.quick
    | "default" -> Ok Params.default
    | "paper" -> Ok Params.paper
    | s -> Error (`Msg (Printf.sprintf "unknown scale %S" s))
  in
  Arg.conv (parse, fun ppf _ -> Format.pp_print_string ppf "<scale>")

let params_term =
  let scale =
    Arg.(
      value
      & opt scale_conv Params.default
      & info [ "scale" ] ~docv:"SCALE"
          ~env:(Cmd.Env.info "NR_BENCH_SCALE")
          ~doc:"Preset: quick, default or paper.")
  in
  let topology =
    Arg.(
      value
      & opt (some topology_conv) None
      & info [ "topology" ] ~docv:"TOPO" ~doc:"Machine topology override.")
  in
  let threads =
    Arg.(
      value
      & opt (some threads_conv) None
      & info [ "threads" ] ~docv:"LIST" ~doc:"Thread sweep override.")
  in
  let population =
    Arg.(
      value
      & opt (some int) None
      & info [ "population" ] ~docv:"N" ~doc:"Initial structure size.")
  in
  let measure_us =
    Arg.(
      value
      & opt (some float) None
      & info [ "measure-us" ] ~docv:"US"
          ~doc:"Virtual-time measurement window per point.")
  in
  let latency =
    Arg.(
      value & flag
      & info [ "latency" ]
          ~doc:
            "Record per-operation latency and add p50/p99 columns (in \
             microseconds) next to each method's throughput.")
  in
  let combine scale topology threads population measure_us latency =
    let p = scale in
    let p = match topology with Some t -> { p with Params.topo = t } | None -> p in
    let p =
      match threads with Some t -> { p with Params.threads = t } | None -> p
    in
    let p =
      match population with
      | Some n -> { p with Params.population = n }
      | None -> p
    in
    let p =
      match measure_us with
      | Some m -> { p with Params.measure_us = m }
      | None -> p
    in
    if latency then { p with Params.latency = true } else p
  in
  Term.(
    const combine $ scale $ topology $ threads $ population $ measure_us
    $ latency)

let list_cmd =
  let run () =
    List.iter
      (fun g -> Printf.printf "%-10s %s\n" g.Figures.id g.Figures.description)
      Figures.groups
  in
  Cmd.v (Cmd.info "list" ~doc:"List available figure/table ids.")
    Term.(const run $ const ())

let run_term =
  let figures =
    Arg.(
      value
      & pos_all string []
      & info [] ~docv:"FIGURE" ~doc:"Figure ids to run (default: all).")
  in
  let trace_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Capture an event trace of the run and write it to $(docv) as \
             Chrome trace_event JSON (open in Perfetto or chrome://tracing). \
             Timestamps are virtual cycles, so output is byte-identical \
             across runs with the same seed.  Best combined with a single \
             figure and one --threads point.")
  in
  let trace_capacity =
    Arg.(
      value
      & opt int 4096
      & info [ "trace-capacity" ] ~docv:"N"
          ~doc:
            "Events retained per thread (drop-oldest ring buffer).")
  in
  let metrics =
    Arg.(
      value & flag
      & info [ "metrics" ]
          ~doc:
            "After each measured point, print a unified metrics dump \
             (simulator counters, NR combiner stats, latency quantiles) to \
             stderr — the same reporting path the domains runtime uses.")
  in
  let run params figures trace_file trace_capacity metrics =
    Nr_obs.Sink.request_metrics metrics;
    if trace_capacity <= 0 then begin
      Printf.eprintf "nr-bench: --trace-capacity must be positive\n";
      exit 124
    end;
    let trace =
      match trace_file with
      | None -> None
      | Some file ->
          (* open the output now so a bad path fails before the run, not
             after the benchmark has already burned its minutes *)
          let oc =
            try open_out file
            with Sys_error msg ->
              Printf.eprintf "nr-bench: cannot write trace: %s\n" msg;
              exit 124
          in
          (* virtual time: deterministic, free to read outside the sim *)
          let now () =
            if Nr_sim.Sched.running () then Nr_sim.Sched.now () else 0
          in
          let t =
            Nr_obs.Trace.create ~capacity:trace_capacity
              ~threads:(Nr_sim.Topology.max_threads params.Params.topo)
              ~now ()
          in
          Nr_obs.Sink.install_trace t;
          Some (file, oc, t)
    in
    Format.printf "# topology: %a@." Nr_sim.Topology.pp params.Params.topo;
    (match figures with
    | [] -> Figures.run_all params
    | ids ->
        List.iter
          (fun id ->
            match Figures.find id with
            | Some g ->
                Format.printf "=== %s: %s ===@." g.Figures.id
                  g.Figures.description;
                g.Figures.run params
            | None -> Printf.eprintf "unknown figure id %S\n" id)
          ids);
    match trace with
    | None -> ()
    | Some (file, oc, t) ->
        Nr_obs.Sink.uninstall_trace ();
        Nr_obs.Trace.write_chrome t oc;
        close_out oc;
        Printf.eprintf "# trace: %d events retained (%d dropped) -> %s\n%!"
          (Nr_obs.Trace.recorded t - Nr_obs.Trace.dropped t)
          (Nr_obs.Trace.dropped t) file
  in
  Term.(
    const run $ params_term $ figures $ trace_file $ trace_capacity $ metrics)

let run_cmd =
  Cmd.v (Cmd.info "run" ~doc:"Run experiments and print their tables.") run_term

(* --- Bechamel micro-benchmarks: single-threaded latency of the kernel
   operation behind each figure family, on real domains. ------------- *)

let micro_tests () =
  let open Bechamel in
  let topo = Nr_sim.Topology.tiny in
  let rt = Nr_runtime.Runtime_domains.make topo in
  let module R = (val rt) in
  Nr_runtime.Runtime_domains.register ~tid:0;
  let rng = Nr_workload.Prng.create ~seed:42 in
  (* fig5: skip-list PQ op through NR *)
  let module Nr_pq = Nr_core.Node_replication.Make (R) (Nr_seqds.Skiplist_pq) in
  let nr_pq = Nr_pq.create (fun () -> Nr_seqds.Skiplist_pq.create ()) in
  let fig5 =
    Test.make ~name:"fig5-nr-skiplist-pq-op"
      (Staged.stage (fun () ->
           ignore
             (Nr_pq.execute nr_pq
                (Nr_seqds.Pq_ops.Insert (Nr_workload.Prng.below rng 100000, 1)));
           ignore (Nr_pq.execute nr_pq Nr_seqds.Pq_ops.Delete_min)))
  in
  (* fig6: pairing heap op through NR *)
  let module Nr_ph = Nr_core.Node_replication.Make (R) (Nr_seqds.Pairing_pq) in
  let nr_ph = Nr_ph.create (fun () -> Nr_seqds.Pairing_pq.create ()) in
  let fig6 =
    Test.make ~name:"fig6-nr-pairing-heap-op"
      (Staged.stage (fun () ->
           ignore
             (Nr_ph.execute nr_ph
                (Nr_seqds.Pq_ops.Insert (Nr_workload.Prng.below rng 100000, 1)));
           ignore (Nr_ph.execute nr_ph Nr_seqds.Pq_ops.Delete_min)))
  in
  (* fig7: dictionary lookup/insert through NR *)
  let module Nr_dict =
    Nr_core.Node_replication.Make (R) (Nr_seqds.Skiplist_dict)
  in
  let nr_dict = Nr_dict.create (fun () -> Nr_seqds.Skiplist_dict.create ()) in
  let fig7 =
    Test.make ~name:"fig7-nr-dict-op"
      (Staged.stage (fun () ->
           let k = Nr_workload.Prng.below rng 100000 in
           ignore (Nr_dict.execute nr_dict (Nr_seqds.Dict_ops.Insert (k, k)));
           ignore (Nr_dict.execute nr_dict (Nr_seqds.Dict_ops.Lookup k))))
  in
  (* fig8: lock-free stack push/pop *)
  let module Lf = Nr_baselines.Lf_stack.Make (R) in
  let lf_stack = Lf.create () in
  let fig8 =
    Test.make ~name:"fig8-treiber-push-pop"
      (Staged.stage (fun () ->
           Lf.push lf_stack 1;
           ignore (Lf.pop lf_stack)))
  in
  (* fig9/10: synthetic structure op *)
  let module Syn = Nr_seqds.Synthetic.Make (struct
    let n = 100_000
    let c = 8
  end) in
  let syn = Syn.create () in
  let fig9 =
    Test.make ~name:"fig9-synthetic-update"
      (Staged.stage (fun () ->
           ignore (Syn.execute syn (Syn.Update (Nr_workload.Prng.next rng)))))
  in
  (* fig11/12: sorted-set command through NR over the whole store *)
  let module Nr_store = Nr_core.Node_replication.Make (R) (Nr_kvstore.Store) in
  let nr_store =
    Nr_store.create (fun () ->
        let s = Nr_kvstore.Store.create () in
        for m = 0 to 999 do
          ignore
            (Nr_kvstore.Store.execute s (Nr_kvstore.Command.Zadd ("z", m, m)))
        done;
        s)
  in
  let fig11 =
    Test.make ~name:"fig11-nr-zincrby-zrank"
      (Staged.stage (fun () ->
           let m = Nr_workload.Prng.below rng 1000 in
           ignore
             (Nr_store.execute nr_store (Nr_kvstore.Command.Zincrby ("z", 1, m)));
           ignore (Nr_store.execute nr_store (Nr_kvstore.Command.Zrank ("z", m)))))
  in
  (* fig14: NR with flat combining disabled *)
  let module Nr_ab = Nr_core.Node_replication.Make (R) (Nr_seqds.Skiplist_pq) in
  let nr_ab =
    Nr_ab.create
      ~cfg:{ Nr_core.Config.default with flat_combining = false }
      (fun () -> Nr_seqds.Skiplist_pq.create ())
  in
  let fig14 =
    Test.make ~name:"fig14-nr-no-flat-combining-op"
      (Staged.stage (fun () ->
           ignore
             (Nr_ab.execute nr_ab
                (Nr_seqds.Pq_ops.Insert (Nr_workload.Prng.below rng 100000, 1)));
           ignore (Nr_ab.execute nr_ab Nr_seqds.Pq_ops.Delete_min)))
  in
  [ fig5; fig6; fig7; fig8; fig9; fig11; fig14 ]

let run_micro () =
  let open Bechamel in
  Format.printf "=== bechamel micro-benchmarks (1 thread, real domains) ===@.";
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) ()
  in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg [ instance ] test in
      let analysis = Analyze.all ols instance results in
      Hashtbl.iter
        (fun name ols_result ->
          match Analyze.OLS.estimates ols_result with
          | Some (est :: _) -> Format.printf "%-32s %12.1f ns/op@." name est
          | Some [] | None -> Format.printf "%-32s (no estimate)@." name)
        analysis)
    (micro_tests ());
  Format.printf "@."

let micro_cmd =
  Cmd.v
    (Cmd.info "micro"
       ~doc:
         "Bechamel micro-benchmarks: single-threaded latency of each figure \
          family's kernel operation on real domains.")
    Term.(const run_micro $ const ())

let () =
  let doc = "regenerate the Node Replication paper's evaluation" in
  exit
    (Cmd.eval
       (Cmd.group ~default:run_term (Cmd.info "nr-bench" ~doc)
          [ list_cmd; run_cmd; micro_cmd ]))
