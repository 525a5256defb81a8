(* Hot-path properties: the flat shared log under random batched
   append/replay/recycle schedules, copy-based replica construction, and
   end-to-end determinism of a seeded sweep point. *)

module S = Nr_sim.Sched
module T = Nr_sim.Topology

(* --- the flat log under random schedules --------------------------- *)

(* A script interleaves batched appends from two nodes with partial
   consumption; small logs force many laps through the generation-stamp
   recycling protocol, and full logs exercise the [on_full] helping path. *)
type step = Append of int * int  (** node, batch size *)
          | Consume of int * int  (** node, window *)

let script_gen =
  QCheck.Gen.(
    let* size = oneofl [ 8; 16; 64 ] in
    let* steps =
      list_size (int_range 20 120)
        (oneof
           [
             (let* node = int_bound 1 in
              let* n = int_range 1 4 in
              return (Append (node, n)));
             (let* node = int_bound 1 in
              let* w = int_range 1 8 in
              return (Consume (node, w)));
           ])
    in
    return (size, steps))

let print_script (size, steps) =
  let b = Buffer.create 256 in
  Buffer.add_string b (Printf.sprintf "size=%d:" size);
  List.iter
    (function
      | Append (n, k) -> Buffer.add_string b (Printf.sprintf " A%d/%d" n k)
      | Consume (n, w) -> Buffer.add_string b (Printf.sprintf " C%d/%d" n w))
    steps;
  Buffer.contents b

let log_replay_agrees =
  QCheck.Test.make ~count:60
    ~name:"log: every node replays the append order, across laps"
    (QCheck.make script_gen ~print:print_script)
    (fun (size, steps) ->
      let sched = S.create T.tiny in
      let module R = (val Nr_runtime.Runtime_sim.make sched) in
      let module Log = Nr_core.Log.Make (R) in
      let appended = ref [] in
      let observed = [| ref []; ref [] |] in
      let ok = ref true in
      S.spawn sched ~tid:0 (fun () ->
          let log = Log.create ~size ~nodes:2 () in
          let bufs = [| Log.batch (); Log.batch () |] in
          let tails = [| 0; 0 |] in
          let next = ref 0 in
          (* consume up to [w] filled entries into [node]'s observed list *)
          let consume node w =
            let lt = tails.(node) in
            let n = min w (Log.tail log - lt) in
            if n > 0 then begin
              let k = Log.read_filled log bufs.(node) lt n in
              for j = 0 to k - 1 do
                observed.(node) := Log.op_at log (lt + j) :: !(observed.(node))
              done;
              tails.(node) <- lt + k;
              Log.set_local_tail log node (lt + k)
            end
          in
          let drain node = consume node max_int in
          let on_full () =
            (* recycling needs every node past the oldest lap: help both *)
            drain 0;
            drain 1
          in
          List.iter
            (function
              | Append (node, n) ->
                  let ops = Array.make n None and slots = Array.make n 0 in
                  for j = 0 to n - 1 do
                    let s = Printf.sprintf "%d-%d" node (!next + j) in
                    ops.(j) <- Some s;
                    slots.(j) <- j;
                    appended := s :: !appended
                  done;
                  next := !next + n;
                  ignore (Log.append_batch log ~ops ~slots ~n ~origin_node:node ~on_full)
              | Consume (node, w) -> consume node w)
            steps;
          drain 0;
          drain 1;
          ok :=
            tails.(0) = Log.tail log
            && tails.(1) = Log.tail log);
      S.run sched;
      let order l = List.rev !l in
      !ok
      && order observed.(0) = order appended
      && order observed.(1) = order appended)

(* --- replica construction by copy ---------------------------------- *)

module Sl = Nr_seqds.Skiplist.Make (Nr_seqds.Ordered.Int)
module Ph = Nr_seqds.Pairing_heap.Make (Nr_seqds.Ordered.Int)

let pq_ops_gen =
  QCheck.Gen.(
    pair
      (list_size (int_range 0 80) (int_bound 200))
      (list_size (int_range 0 80) (oneof [ map (fun k -> `I k) (int_bound 200); return `R ])))

let print_pq_ops (init, ops) =
  Printf.sprintf "init=[%s] ops=[%s]"
    (String.concat ";" (List.map string_of_int init))
    (String.concat ";"
       (List.map (function `I k -> Printf.sprintf "i%d" k | `R -> "r") ops))

(* A copy must behave exactly like its original under any later op
   sequence — including tower shapes, which depend on the copied PRNG. *)
let skiplist_copy_equiv =
  QCheck.Test.make ~count:200 ~name:"skiplist copy: identical future behaviour"
    (QCheck.make pq_ops_gen ~print:print_pq_ops)
    (fun (init, ops) ->
      let a = Sl.create ~seed:0x51C1 () in
      List.iter (fun k -> ignore (Sl.insert a k k)) init;
      let b = Sl.copy a in
      Sl.to_list a = Sl.to_list b
      && Result.is_ok (Sl.validate b)
      && List.for_all
           (function
             | `I k -> Sl.insert a k k = Sl.insert b k k
             | `R -> Sl.remove_min a = Sl.remove_min b)
           ops
      && Sl.to_list a = Sl.to_list b)

let pairing_copy_equiv =
  QCheck.Test.make ~count:200
    ~name:"pairing heap copy: identical future behaviour"
    (QCheck.make pq_ops_gen ~print:print_pq_ops)
    (fun (init, ops) ->
      let a = Ph.create () in
      List.iter (fun k -> Ph.insert a k k) init;
      let b = Ph.copy a in
      List.for_all
        (function
          | `I k ->
              Ph.insert a k k;
              Ph.insert b k k;
              true
          | `R -> Ph.remove_min a = Ph.remove_min b)
        ops
      && Ph.to_sorted_list a = Ph.to_sorted_list b
      && (* draining compares the exact meld order, not just the key sets *)
      List.init (Ph.length a) (fun _ -> Ph.remove_min a)
      = List.init (Ph.length b) (fun _ -> Ph.remove_min b))

(* --- end-to-end determinism ---------------------------------------- *)

open Nr_harness

let run_point ?faults () =
  let params =
    {
      Params.topo = T.intel;
      threads = [ 14 ];
      warmup_us = 2.0;
      measure_us = 12.0;
      population = 512;
      seed = 0xA5A5;
      latency = false;
    }
  in
  Driver.run_sim ?faults ~topo:params.Params.topo ~threads:14
    ~warmup_us:params.Params.warmup_us ~measure_us:params.Params.measure_us
    (Exp_pq.Sl_exp.setup_black_box params Method.NR ~update_pct:10 ~e:0
       ~threads:14)

let check_points_identical msg (a : Driver.result) (b : Driver.result) =
  Alcotest.(check int) (msg ^ ": total ops") a.Driver.total_ops b.Driver.total_ops;
  Alcotest.(check int)
    (msg ^ ": remote transfers")
    a.Driver.remote_transfers b.Driver.remote_transfers;
  Alcotest.(check bool)
    (msg ^ ": throughput bit-identical")
    true
    (Int64.bits_of_float a.Driver.ops_per_us
    = Int64.bits_of_float b.Driver.ops_per_us)

let test_sweep_point_deterministic () =
  check_points_identical "rerun" (run_point ()) (run_point ())

(* Zero-overhead guard: installing the fault-injection hooks with a plan
   that never fires must not move a single virtual-time charge — the
   fig5a-style sweep point stays byte-identical.  (Legacy configs with no
   plan at all are covered by the rerun test above.) *)
let test_fault_hooks_transparent () =
  check_points_identical "armed-but-silent plan"
    (run_point ())
    (run_point ~faults:Nr_sim.Fault_plan.none ())

(* --- goldens for the hardened protocol and the ablation paths ------- *)

(* [test_readpath]'s goldens pin only [Config.default].  These pin the
   other configurations whose replay, helping, slot-drain and read-wait
   code the default never runs, on the fault experiment's workload (10%
   updates, e=0) over a short window: any drift means a change moved a
   charge sequence of that protocol. *)

let golden_params threads =
  {
    Params.topo = T.intel;
    threads = [ threads ];
    warmup_us = 2.0;
    measure_us = 12.0;
    population = 512;
    seed = 0xA5A5;
    latency = false;
  }

let run_golden ?faults cfg ~threads =
  let params = golden_params threads in
  Driver.run_sim ?faults ~topo:params.Params.topo ~threads
    ~warmup_us:params.Params.warmup_us ~measure_us:params.Params.measure_us
    (Exp_faults.setup params Method.NR cfg ~threads)

let check_golden tag (r : Driver.result) (ops, opus, remote) =
  Alcotest.(check int) (tag ^ ": total ops") ops r.Driver.total_ops;
  Alcotest.(check int) (tag ^ ": remote transfers") remote
    r.Driver.remote_transfers;
  Alcotest.(check bool)
    (tag ^ ": ops/us bit-identical to golden")
    true
    (Int64.bits_of_float opus = Int64.bits_of_float r.Driver.ops_per_us)

(* (label, config, stall kcycles (0 = no plan), threads,
   (total_ops, ops_per_us as hex-float bits, remote transfers)) *)
let fault_goldens =
  [
    ("NR-robust", Nr_core.Config.robust, 0, 56, (353, 0x1.d6aaaaaaaaaabp+4, 152));
    ("NR-robust", Nr_core.Config.robust, 0, 112, (506, 0x1.5155555555555p+5, 526));
    ("NR-robust", Nr_core.Config.robust, 50, 56, (87, 0x1.dp+2, 81));
    ("NR-robust", Nr_core.Config.robust, 50, 112, (241, 0x1.4155555555555p+4, 352));
    ("NR", Nr_core.Config.default, 50, 56, (159, 0x1.a8p+3, 78));
  ]

let test_fault_goldens () =
  List.iter
    (fun (label, cfg, kc, threads, golden) ->
      let faults =
        if kc = 0 then None
        else Some (Exp_faults.plan ~seed:0xA5A5 ~stall_kcycles:kc)
      in
      check_golden
        (Printf.sprintf "%s stall=%dk t=%d" label kc threads)
        (run_golden ?faults cfg ~threads)
        golden)
    fault_goldens

(* One point per disabled technique of the fig14 ablation, in
   [Exp_ablation.techniques] order, at two nodes so cross-node replay
   and (without flat combining) response delivery both run. *)
let ablation_goldens =
  [
    (261, 0x1.5cp+4, 1160);
    (177, 0x1.d8p+3, 129);
    (221, 0x1.26aaaaaaaaaabp+4, 62);
    (572, 0x1.7d55555555555p+5, 183);
    (255, 0x1.54p+4, 62);
  ]

let test_ablation_goldens () =
  List.iter2
    (fun (t : Exp_ablation.technique) golden ->
      check_golden t.Exp_ablation.label
        (run_golden t.Exp_ablation.cfg ~threads:56)
        golden)
    Exp_ablation.techniques ablation_goldens

let suite =
  List.map QCheck_alcotest.to_alcotest
    [ log_replay_agrees; skiplist_copy_equiv; pairing_copy_equiv ]
  @ [
      Alcotest.test_case "seeded sweep point is deterministic" `Quick
        test_sweep_point_deterministic;
      Alcotest.test_case "fault hooks are timing-transparent" `Quick
        test_fault_hooks_transparent;
      Alcotest.test_case "hardened protocol fixed-seed goldens" `Quick
        test_fault_goldens;
      Alcotest.test_case "ablation fixed-seed goldens" `Quick
        test_ablation_goldens;
    ]
