(* Tests of the benchmark's own code: the percentile rule, the reply
   verifier, and the parse of kv_server's start-up banner. *)

module C = Nr_kvstore.Command
module Pct = Perfbench_core.Pct
module Banner = Perfbench_core.Banner
module Model = Perfbench_core.Model
module Value = Perfbench_core.Value

let check_tail n want () =
  Alcotest.(check (option int)) (Printf.sprintf "tail of %d samples" n) want (Pct.tail n)

let test_of_sorted () =
  let a = Array.init 100 (fun i -> i + 1) in
  Alcotest.(check int) "p50" 50 (Pct.of_sorted a 50);
  Alcotest.(check int) "p99" 99 (Pct.of_sorted a 99);
  Alcotest.(check int) "p50 of one" 7 (Pct.of_sorted [| 7 |] 50)

let plain =
  "kv-server listening on 127.0.0.1:40113 (2 workers, net=pool, NR over 2 replicas)\n"

let aof =
  "recovered to position 4096 (snapshot up to 4000, 96 ops replayed)\n\
   kv-server listening on 127.0.0.1:5120 (2 workers, net=pool, NR over 2 \
   replicas, aof=_perfbench/aof-0 fsync=every-n:32 snapshot-every=20000 \
   (background))\n"

let test_banner () =
  Alcotest.(check (option int)) "plain" (Some 40113) (Banner.port_of_output plain);
  Alcotest.(check (option int)) "--aof" (Some 5120) (Banner.port_of_output aof);
  Alcotest.(check (option int))
    "recovery line alone" None
    (Banner.port_of_output "recovered to position 0 (snapshot none, 0 ops replayed)\n");
  Alcotest.(check (option int))
    "line still arriving" None
    (Banner.port_of_output "kv-server listening on 127.0.0.1:401")

let ok = Alcotest.(check (result unit string))

let is_error what = function
  | Ok () -> Alcotest.failf "%s: accepted" what
  | Error _ -> ()

(* one connection (writer 0) and the preload writer 1 *)
let fresh () =
  let m = Model.create ~writers:1 in
  (m, Model.conn ~writer:0)

let set m c k ~seq ~size =
  let v = Value.make k ~writer:0 ~seq ~size in
  ok "SET acknowledged" (Ok ()) (Model.send m c (C.Set (k, v)) C.Ok_reply);
  v

let flip v i = String.mapi (fun j ch -> if j = i then Char.chr (Char.code ch lxor 1) else ch) v

let test_get () =
  let m, c = fresh () in
  let get () = Model.send m c (C.Get "k1") in
  ok "nil before any write" (Ok ()) (get () C.Nil);
  let v1 = set m c "k1" ~seq:1 ~size:64 in
  ok "the written value" (Ok ()) (get () (C.Bulk v1));
  is_error "nil after an acknowledged SET" (get () C.Nil);
  is_error "filler byte flipped" (get () (C.Bulk (flip v1 40)));
  is_error "another key's value" (get () (C.Bulk (Value.make "k2" ~writer:0 ~seq:1 ~size:64)));
  is_error "a write never sent" (get () (C.Bulk (Value.make "k1" ~writer:0 ~seq:9 ~size:64)));
  is_error "wrong reply type" (get () (C.Int 1));
  let _v2 = set m c "k1" ~seq:2 ~size:64 in
  is_error "stale value" (get () (C.Bulk v1))

let test_big () =
  let m, c = fresh () in
  let v = set m c "L0" ~seq:1 ~size:(1 lsl 20) in
  let get () = Model.send m c (C.Get "L0") in
  ok "the written megabyte" (Ok ()) (get () (C.Bulk v));
  is_error "checksum" (get () (C.Bulk (flip v 700_000)));
  is_error "length" (get () (C.Bulk (String.sub v 0 ((1 lsl 20) - 1))))

let test_zincrby () =
  let m, c = fresh () in
  ok "first increment" (Ok ()) (Model.send m c (C.Zincrby ("z0", 3, 1)) (C.Int 3));
  is_error "score below what was acknowledged"
    (Model.send m c (C.Zincrby ("z0", 2, 1)) (C.Int 4));
  is_error "score above what was sent"
    (Model.send m c (C.Zincrby ("z0", 2, 1)) (C.Int 99));
  ok "score of the member" (Ok ()) (Model.send m c (C.Zscore ("z0", 1)) (C.Int 3));
  is_error "rank past the members" (Model.send m c (C.Zrank ("z0", 1)) (C.Int 5))

let test_exec () =
  let m, c = fresh () in
  let run replies_of_exec =
    ok "MULTI" (Ok ()) (Model.send m c C.Multi C.Ok_reply);
    let v = Value.make "k3" ~writer:0 ~seq:1 ~size:64 in
    ok "queued SET" (Ok ()) (Model.send m c (C.Set ("k3", v)) (C.Bulk "QUEUED"));
    ok "queued ZINCRBY" (Ok ()) (Model.send m c (C.Zincrby ("z1", 1, 0)) (C.Bulk "QUEUED"));
    Model.send m c C.Exec replies_of_exec
  in
  ok "one reply per queued command" (Ok ())
    (run (C.Array [ C.Ok_reply; C.Int 1 ]));
  is_error "a reply missing" (run (C.Array [ C.Ok_reply ]));
  is_error "an aborted EXEC" (run C.Nil);
  ok "MULTI" (Ok ()) (Model.send m c C.Multi C.Ok_reply);
  is_error "not QUEUED" (Model.send m c (C.Zincrby ("z1", 1, 0)) C.Ok_reply)

let () =
  Alcotest.run "perfbench"
    [
      ( "percentiles",
        [
          Alcotest.test_case "p99 from 1000 samples" `Quick (check_tail 1000 (Some 99));
          Alcotest.test_case "p95 below 1000 samples" `Quick (check_tail 999 (Some 95));
          Alcotest.test_case "p90 from 100 samples" `Quick (check_tail 100 (Some 90));
          Alcotest.test_case "p50 from 20 samples" `Quick (check_tail 20 (Some 50));
          Alcotest.test_case "none below 20 samples" `Quick (check_tail 19 None);
          Alcotest.test_case "nearest rank" `Quick test_of_sorted;
        ] );
      ("banner", [ Alcotest.test_case "port from plain and --aof banners" `Quick test_banner ]);
      ( "verifier",
        [
          Alcotest.test_case "GET values" `Quick test_get;
          Alcotest.test_case "1 MiB values by length and checksum" `Quick test_big;
          Alcotest.test_case "sorted-set scores and ranks" `Quick test_zincrby;
          Alcotest.test_case "MULTI/EXEC replies" `Quick test_exec;
        ] );
    ]
