(* Read-path suite for the optimistic seqlock reads.

   Pins the zero-overhead claim (flag off = bit-identical to the goldens
   captured before the read path existed), the perf claim (pure-read
   throughput strictly higher with the seqlock path on), linearizability
   of the optimistic engine variants under seeded fault plans, and the
   catchability of the [Skip_read_validate] mutation at its pinned
   counterexample tuple. *)

module T = Nr_sim.Topology
module E = Nr_check.Explore
open Nr_harness

(* --- fixed-seed goldens with the flag off --------------------------- *)

(* The fig5a-style probe points captured before the read path existed:
   any drift with optimistic_reads off means a change touched a charge
   sequence it promised not to touch. *)

let params threads =
  {
    Params.topo = T.intel;
    threads = [ threads ];
    warmup_us = 2.0;
    measure_us = 12.0;
    population = 512;
    seed = 0xA5A5;
    latency = false;
  }

let run_cfg cfg ~update_pct ~threads =
  let params = params threads in
  let setup rt =
    let exec =
      Exp_pq.Sl_exp.W.build rt Method.NR ~cfg ~threads
        ~factory:(Exp_pq.Sl_exp.factory params) ()
    in
    Exp_pq.Sl_exp.body params ~update_pct ~e:0 ~exec rt
  in
  Driver.run_sim ~topo:params.Params.topo ~threads
    ~warmup_us:params.Params.warmup_us ~measure_us:params.Params.measure_us
    setup

(* (update_pct, threads, total_ops, ops_per_us as hex-float bits) *)
let goldens =
  [
    (0, 28, 3472, 0x1.2155555555555p+8);
    (10, 28, 585, 0x1.86p+5);
    (10, 14, 487, 0x1.44aaaaaaaaaabp+5);
    (100, 28, 78, 0x1.ap+2);
  ]

let test_flags_off_goldens () =
  List.iter
    (fun (update_pct, threads, ops, opus) ->
      let r = run_cfg Nr_core.Config.default ~update_pct ~threads in
      let tag = Printf.sprintf "upd=%d t=%d" update_pct threads in
      Alcotest.(check int) (tag ^ ": total ops") ops r.Driver.total_ops;
      Alcotest.(check int) (tag ^ ": remote transfers") 0
        r.Driver.remote_transfers;
      Alcotest.(check bool)
        (tag ^ ": ops/us bit-identical to golden")
        true
        (Int64.bits_of_float opus = Int64.bits_of_float r.Driver.ops_per_us))
    goldens

let opt_cfg =
  {
    Nr_core.Config.default with
    optimistic_reads = true;
    read_patience = Some 4;
  }

(* --- the perf claim and flags-on determinism ----------------------- *)

let test_optimistic_reads_faster () =
  let off = run_cfg Nr_core.Config.default ~update_pct:0 ~threads:28 in
  let on = run_cfg opt_cfg ~update_pct:0 ~threads:28 in
  Alcotest.(check bool)
    "0%-update sweep faster with optimistic reads on" true
    (on.Driver.total_ops > off.Driver.total_ops)

let test_flags_on_deterministic () =
  let a = run_cfg opt_cfg ~update_pct:10 ~threads:28 in
  let b = run_cfg opt_cfg ~update_pct:10 ~threads:28 in
  Alcotest.(check int) "total ops" a.Driver.total_ops b.Driver.total_ops;
  Alcotest.(check bool)
    "throughput bit-identical" true
    (Int64.bits_of_float a.Driver.ops_per_us
    = Int64.bits_of_float b.Driver.ops_per_us)

(* --- sequential oracle through the optimistic path ----------------- *)

let test_opt_path_sequential_oracle () =
  let sched = Nr_sim.Sched.create T.tiny in
  let rt = Nr_runtime.Runtime_sim.make sched in
  let module W = Families.Wrap (Nr_seqds.Skiplist_dict) in
  let oracle = Nr_seqds.Skiplist_dict.create () in
  let exec =
    W.build rt Method.NR ~cfg:opt_cfg ~threads:1
      ~factory:(fun () -> Nr_seqds.Skiplist_dict.create ())
      ()
  in
  let rng = Nr_workload.Prng.create ~seed:7 in
  Nr_sim.Sched.spawn sched ~tid:0 (fun () ->
      for _ = 1 to 300 do
        let op = Chaos.dict_op 8 rng in
        let expect = Nr_seqds.Skiplist_dict.execute oracle op in
        let got = exec op in
        Alcotest.(check bool)
          "optimistic path agrees with the sequential oracle" true
          (expect = got)
      done)
  |> ignore;
  Nr_sim.Sched.run sched

(* --- linearizability of the new engines under fault plans ---------- *)

(* Seeded plans, including the steal/death families on the robust
   variant: every history the explorer records must linearize — the
   optimistic read path is indistinguishable from the slot path. *)
let opt_engines_linearizable =
  QCheck.Test.make ~count:12
    ~name:"NR-opt / NR-robust-opt linearizable under seeded fault plans"
    QCheck.(
      make
        Gen.(
          let* seed = int_range 1 1000 in
          let* salt = oneofl [ 0; 7; 21; 1365 ] in
          let* plan =
            oneofl
              [ "none"; "jitter:2"; "storm:3"; "steal:1"; "death:1" ]
          in
          let* engine = oneofl [ E.Nr_opt; E.Nr_robust_opt ] in
          return (seed, salt, plan, engine))
        ~print:(fun (seed, salt, plan, engine) ->
          Printf.sprintf "seed=%d salt=%d plan=%s engine=%s" seed salt plan
            (E.engine_name engine)))
    (fun (seed, salt, plan, engine) ->
      (* steal/death assume the hardened protocol *)
      let engine =
        if E.plan_allows ~spec:plan engine then engine else E.Nr_robust_opt
      in
      E.Run_kv.check_one ~topo:"tiny" ~threads:4 ~seed ~salt ~plan
        ~ops_per_thread:6 ~key_space:2 ~engine ~mutation:false ()
      = None)

(* --- the seeded mutation is caught --------------------------------- *)

(* The pinned counterexample tuple found by the sweep: skipping the
   post-read stamp validation lets a preempted reader return a stale
   value a completed remote update already overwrote. *)
let test_skip_read_validate_caught () =
  match
    E.Run_kv.check_one ~topo:"tiny" ~threads:4 ~seed:31 ~salt:21
      ~plan:"storm:1" ~ops_per_thread:20 ~key_space:2 ~engine:E.Nr_opt
      ~mutation:true ()
  with
  | Some _ -> ()
  | None ->
      Alcotest.fail
        "Skip_read_validate mutation not flagged at its pinned tuple"

let suite =
  [
    Alcotest.test_case "flags-off fixed-seed goldens" `Quick
      test_flags_off_goldens;
    Alcotest.test_case "optimistic reads beat the slot path at 0% updates"
      `Quick test_optimistic_reads_faster;
    Alcotest.test_case "flags-on sweep point is deterministic" `Quick
      test_flags_on_deterministic;
    Alcotest.test_case "optimistic path agrees with sequential oracle"
      `Quick test_opt_path_sequential_oracle;
    QCheck_alcotest.to_alcotest opt_engines_linearizable;
    Alcotest.test_case "Skip_read_validate caught at pinned tuple" `Quick
      test_skip_read_validate_caught;
  ]
