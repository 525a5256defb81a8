(* Harness tests: driver measurement, table rendering, method registry,
   figure plumbing at miniature scale. *)

open Nr_harness

let tiny_params =
  {
    Params.topo = Nr_sim.Topology.tiny;
    threads = [ 1; 4 ];
    warmup_us = 2.0;
    measure_us = 10.0;
    population = 200;
    seed = 1;
    latency = false;
  }

let test_driver_counts_ops () =
  let r =
    Driver.run_sim ~topo:Nr_sim.Topology.tiny ~threads:2 ~warmup_us:1.0
      ~measure_us:10.0 (fun rt ~tid ->
        ignore tid;
        let module R = (val rt : Nr_runtime.Runtime_intf.S) in
        fun () -> R.work 100)
  in
  Alcotest.(check bool) "ops counted" true (r.Driver.total_ops > 0);
  (* 2 threads x one op per 100 cycles over 10us at 2GHz = ~400 ops *)
  Alcotest.(check bool) "plausible count" true
    (r.Driver.total_ops > 200 && r.Driver.total_ops < 800);
  Alcotest.(check bool) "throughput positive" true (r.Driver.ops_per_us > 0.0)

let test_driver_rejects_bad_threads () =
  Alcotest.check_raises "too many threads"
    (Invalid_argument "Driver.run_sim: thread count out of range for topology")
    (fun () ->
      ignore
        (Driver.run_sim ~topo:Nr_sim.Topology.tiny ~threads:100 ~warmup_us:1.0
           ~measure_us:1.0 (fun _ ~tid:_ () -> ())))

let test_method_names () =
  List.iter
    (fun m ->
      match Method.of_name (Method.name m) with
      | Some m' when m = m' -> ()
      | _ -> Alcotest.failf "name roundtrip failed for %s" (Method.name m))
    [ Method.SL; Method.RWL; Method.FC; Method.FCplus; Method.LF; Method.NA; Method.NR ]

let test_table_render () =
  let fig =
    {
      Table.id = "t1";
      title = "test";
      x_label = "threads";
      y_label = "ops/us";
      series =
        [
          { Table.label = "A"; points = [ Table.pt 1 1.5; Table.pt 2 3.0 ] };
          { Table.label = "B"; points = [ Table.pt 1 0.5 ] };
        ];
      notes = [ "note" ];
    }
  in
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  Table.render ppf fig;
  Format.pp_print_flush ppf ();
  let s = Buffer.contents buf in
  Alcotest.(check bool) "has title" true
    (Astring_contains.contains s "test");
  Alcotest.(check bool) "has dash for missing point" true
    (Astring_contains.contains s "-");
  match Table.winner_at_max fig with
  | Some ("A", 3.0) -> ()
  | _ -> Alcotest.fail "winner_at_max"

let test_figure_registry () =
  Alcotest.(check bool) "has fig5" true (Figures.find "fig5" <> None);
  Alcotest.(check bool) "has fig14" true (Figures.find "fig14" <> None);
  Alcotest.(check bool) "has shard" true (Figures.find "shard" <> None);
  Alcotest.(check bool) "has durable" true (Figures.find "durable" <> None);
  Alcotest.(check bool) "has opt-reads" true (Figures.find "opt-reads" <> None);
  Alcotest.(check bool) "has txn" true (Figures.find "txn" <> None);
  Alcotest.(check bool) "unknown id" true (Figures.find "nope" = None);
  Alcotest.(check int) "17 groups" 17 (List.length (Figures.ids ()))

(* Cross-method smoke at miniature scale: every black-box method produces a
   working executor and nonzero throughput on the PQ workload. *)
let test_pq_all_methods_run () =
  List.iter
    (fun m ->
      let s =
        Exp_pq.Sl_exp.series tiny_params m ~update_pct:50 ~e:0
      in
      List.iter
        (fun (p : Table.point) ->
          if p.Table.y <= 0.0 then
            Alcotest.failf "%s at %d threads produced no ops" (Method.name m)
              p.Table.x)
        s.Table.points)
    [ Method.NR; Method.LF; Method.FCplus; Method.FC; Method.RWL; Method.SL ]

(* Cross-runtime equivalence: the same seeded workload on the simulator and
   on real domains leaves semantically identical structures. *)
let test_cross_runtime_equivalence () =
  let ops tid =
    let rng = Nr_workload.Prng.create ~seed:(tid + 1) in
    List.init 100 (fun _ ->
        let k = Nr_workload.Prng.below rng 40 in
        if Nr_workload.Prng.bool rng then Nr_seqds.Dict_ops.Insert (k, k)
        else Nr_seqds.Dict_ops.Remove k)
  in
  (* simulator *)
  let sim_result =
    let sched = Nr_sim.Sched.create Nr_sim.Topology.tiny in
    let module R = (val Nr_runtime.Runtime_sim.make sched) in
    let module NR = Nr_core.Node_replication.Make (R) (Nr_seqds.Skiplist_dict) in
    let nr = NR.create (fun () -> Nr_seqds.Skiplist_dict.create ()) in
    (* single thread so the op order is fixed across runtimes *)
    Nr_sim.Sched.spawn sched ~tid:0 (fun () ->
        List.iter (fun op -> ignore (NR.execute nr op)) (ops 0));
    Nr_sim.Sched.run sched;
    NR.Unsafe.sync nr;
    Nr_seqds.Skiplist_dict.to_list (NR.Unsafe.replica nr 0)
  in
  (* domains *)
  let dom_result =
    let module R = (val Nr_runtime.Runtime_domains.make Nr_sim.Topology.tiny) in
    let module NR = Nr_core.Node_replication.Make (R) (Nr_seqds.Skiplist_dict) in
    let nr = NR.create (fun () -> Nr_seqds.Skiplist_dict.create ()) in
    Nr_runtime.Runtime_domains.parallel_run ~nthreads:1 (fun tid ->
        List.iter (fun op -> ignore (NR.execute nr op)) (ops tid));
    Nr_runtime.Runtime_domains.register ~tid:0;
    NR.Unsafe.sync nr;
    Nr_seqds.Skiplist_dict.to_list (NR.Unsafe.replica nr 0)
  in
  Alcotest.(check (list (pair int int))) "same final structure" sim_result
    dom_result

let suite =
  [
    Alcotest.test_case "driver counts ops" `Quick test_driver_counts_ops;
    Alcotest.test_case "driver validates threads" `Quick
      test_driver_rejects_bad_threads;
    Alcotest.test_case "method names" `Quick test_method_names;
    Alcotest.test_case "table render" `Quick test_table_render;
    Alcotest.test_case "figure registry" `Quick test_figure_registry;
    Alcotest.test_case "pq all methods run" `Slow test_pq_all_methods_run;
    Alcotest.test_case "cross-runtime equivalence" `Quick
      test_cross_runtime_equivalence;
  ]
