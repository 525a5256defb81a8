(* Second-wave property tests: randomized NR configurations under the
   linearizability oracle, skip-list rank/selection laws, RESP fuzzing,
   memory-model invariants. *)

module S = Nr_sim.Sched
module T = Nr_sim.Topology

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

(* --- random NR configurations stay linearizable --- *)

let config_gen =
  QCheck.Gen.(
    let* log_size = oneofl [ 64; 128; 1024; 65536 ] in
    let* min_batch = oneofl [ 1; 2; 8 ] in
    let* replay_window = oneofl [ 1; 4; 8 ] in
    let* flat_combining = bool in
    let* read_optimization = bool in
    let* separate_replica_lock = bool in
    let* parallel_replica_update = bool in
    let* distributed_rwlock = bool in
    return
      {
        Nr_core.Config.log_size;
        min_batch;
        min_batch_retries = 2;
        replay_window;
        flat_combining;
        read_optimization;
        separate_replica_lock;
        parallel_replica_update;
        distributed_rwlock;
        shards = 1;
        router_seed = 0x5EED;
        liveness = None;
        mutation = None;
        optimistic_reads = false;
        read_patience = None;
      })

let print_config c = Format.asprintf "%a" Nr_core.Config.pp c

let nr_config_linearizable =
  QCheck.Test.make ~count:30 ~name:"NR linearizable under any configuration"
    (QCheck.make config_gen ~print:print_config)
    (fun cfg ->
      let threads = 12 and per_thread = 25 in
      let sched = S.create T.intel in
      let module R = (val Nr_runtime.Runtime_sim.make sched) in
      let module NR = Nr_core.Node_replication.Make (R) (Counter) in
      let nr = NR.create ~cfg (fun () -> Counter.create ()) in
      let results = Array.make threads [] in
      for tid = 0 to threads - 1 do
        S.spawn sched ~tid (fun () ->
            for _ = 1 to per_thread do
              results.(tid) <- NR.execute nr Counter.Incr :: results.(tid);
              ignore (NR.execute nr Counter.Get)
            done)
      done;
      S.run sched;
      let all = Array.to_list results |> List.concat |> List.sort compare in
      all = List.init (threads * per_thread) (fun i -> i + 1))

(* --- skip list selection laws --- *)

module Sl = Nr_seqds.Skiplist.Make (Nr_seqds.Ordered.Int)

let sl_rank_nth_inverse =
  QCheck.Test.make ~count:200 ~name:"skiplist nth inverts rank"
    QCheck.(list (int_bound 500))
    (fun keys ->
      let t = Sl.create ~seed:3 () in
      List.iter (fun k -> ignore (Sl.insert t k k)) keys;
      let items = Sl.to_list t in
      List.for_all
        (fun (k, _) ->
          match Sl.rank t k with
          | Some r -> (
              match Sl.nth t r with
              | Some (k', _) -> k = k'
              | None -> false)
          | None -> false)
        items)

let sl_rank_counts_smaller =
  QCheck.Test.make ~count:200 ~name:"skiplist rank = #smaller keys"
    QCheck.(pair (list (int_bound 300)) (int_bound 300))
    (fun (keys, probe) ->
      let t = Sl.create ~seed:5 () in
      List.iter (fun k -> ignore (Sl.insert t k k)) keys;
      let distinct = List.sort_uniq compare keys in
      match Sl.rank t probe with
      | Some r -> r = List.length (List.filter (fun k -> k < probe) distinct)
      | None -> not (List.mem probe distinct))

(* --- RESP never crashes on junk and parses its own output --- *)

(* Junk includes bulk headers declaring lengths near [max_int], where a
   naive [body + len] bound check wraps negative. *)
let resp_junk_gen =
  QCheck.Gen.(
    oneof
      [
        string_size (int_bound 64);
        (let* lead = oneofl [ "*1\r\n$"; "$"; "*2\r\n$1\r\na\r\n$" ] in
         let* d = int_bound 64 in
         let* tail = string_size (int_bound 16) in
         return (Printf.sprintf "%s%d\r\n%s" lead (max_int - d) tail));
      ])

let resp_fuzz =
  QCheck.Test.make ~count:500 ~name:"resp parser total on junk"
    (QCheck.make resp_junk_gen ~print:String.escaped)
    (fun junk ->
      (match Nr_kvstore.Resp.parse_request junk with
      | Nr_kvstore.Resp.Parsed _ | Nr_kvstore.Resp.Incomplete
      | Nr_kvstore.Resp.Invalid _ ->
          ());
      match Nr_kvstore.Resp.parse_reply junk with
      | Nr_kvstore.Resp.RParsed _ | Nr_kvstore.Resp.RIncomplete
      | Nr_kvstore.Resp.RInvalid _ ->
          true)

let resp_roundtrip =
  QCheck.Test.make ~count:300 ~name:"resp request roundtrip"
    QCheck.(list_of_size (QCheck.Gen.int_range 1 6) (string_of_size (QCheck.Gen.int_bound 20)))
    (fun tokens ->
      match Nr_kvstore.Resp.parse_request (Nr_kvstore.Resp.encode_request tokens) with
      | Nr_kvstore.Resp.Parsed (tokens', _) -> tokens = tokens'
      | _ -> false)

(* --- memory-model invariants under random access sequences --- *)

let access_gen =
  QCheck.Gen.(
    triple (int_bound 3) (int_bound 55)
      (oneofl [ Nr_sim.Mem.Read; Nr_sim.Mem.Write; Nr_sim.Mem.Cas ]))

let mem_invariants =
  QCheck.Test.make ~count:300 ~name:"memory model line-state invariants"
    (QCheck.make
       QCheck.Gen.(list_size (int_bound 60) access_gen)
       ~print:(fun l -> Printf.sprintf "<%d accesses>" (List.length l)))
    (fun accesses ->
      let topo = T.intel in
      let costs = Nr_sim.Costs.default in
      let st = Nr_sim.Sim_stats.create () in
      let line = Nr_sim.Mem.line ~home:0 in
      let now = ref 0 in
      List.for_all
        (fun (node, core_raw, kind) ->
          let core = (node * 14) + (core_raw mod 14) in
          let fin =
            Nr_sim.Mem.access topo costs st ~node ~core ~now:!now line kind
          in
          let monotone = fin >= !now in
          now := fin;
          let owner_ok =
            line.Nr_sim.Mem.owner = -1
            || line.Nr_sim.Mem.sharers = 1 lsl line.Nr_sim.Mem.owner
          in
          let writer_owns =
            match kind with
            | Nr_sim.Mem.Write | Nr_sim.Mem.Cas ->
                line.Nr_sim.Mem.owner = node
            | Nr_sim.Mem.Read -> line.Nr_sim.Mem.sharers land (1 lsl node) <> 0
          in
          monotone && owner_ok && writer_owns)
        accesses)

(* --- zipf statistics --- *)

let zipf_head_mass =
  QCheck.Test.make ~count:20 ~name:"zipf 1.5 concentrates on the head"
    (QCheck.make QCheck.Gen.(int_range 100 5000) ~print:string_of_int)
    (fun n ->
      let z = Nr_workload.Zipf.create ~theta:1.5 ~n () in
      (* the top 5% of ranks carry most of the mass for theta=1.5 *)
      let top = max 1 (n / 20) in
      let mass = ref 0.0 in
      for k = 0 to top - 1 do
        mass := !mass +. Nr_workload.Zipf.pmf z k
      done;
      !mass > 0.5)

let zipf_mass_sums_to_one =
  QCheck.Test.make ~count:20 ~name:"zipf pmf sums to ~1"
    (QCheck.make
       QCheck.Gen.(pair (int_range 10 3000) (oneofl [ 0.5; 0.99; 1.5 ]))
       ~print:(fun (n, th) -> Printf.sprintf "n=%d theta=%g" n th))
    (fun (n, theta) ->
      let z = Nr_workload.Zipf.create ~theta ~n () in
      let mass = ref 0.0 in
      for k = 0 to n - 1 do
        mass := !mass +. Nr_workload.Zipf.pmf z k
      done;
      Float.abs (!mass -. 1.0) < 1e-9)

let key_dist_in_range =
  QCheck.Test.make ~count:100 ~name:"key_dist samples stay in [0, n)"
    (QCheck.make
       QCheck.Gen.(triple (int_range 1 2000) bool (int_bound 1000))
       ~print:(fun (n, zipfian, seed) ->
         Printf.sprintf "n=%d zipf=%b seed=%d" n zipfian seed))
    (fun (n, zipfian, seed) ->
      let d =
        if zipfian then Nr_workload.Key_dist.zipf ~n ()
        else Nr_workload.Key_dist.uniform n
      in
      let rng = Nr_workload.Prng.create ~seed in
      Nr_workload.Key_dist.space d = n
      && List.for_all
           (fun _ ->
             let k = Nr_workload.Key_dist.sample d rng in
             k >= 0 && k < n)
           (List.init 200 Fun.id))

(* --- router hash: pure function of (seed, key) --- *)

let router_hash_stable =
  QCheck.Test.make ~count:300 ~name:"router hash stable and in shard range"
    (QCheck.make
       QCheck.Gen.(
         triple (int_bound 0xFFFF)
           (string_size (int_bound 32))
           (int_range 1 16))
       ~print:(fun (seed, k, s) ->
         Printf.sprintf "seed=%d key=%S shards=%d" seed k s))
    (fun (seed, key, shards) ->
      let h = Nr_shard.Router.hash ~seed key in
      let r = Nr_shard.Router.create ~shards ~seed () in
      let r' = Nr_shard.Router.create ~shards ~seed () in
      h = Nr_shard.Router.hash ~seed key
      && h >= 0
      && Nr_shard.Router.shard_of r key = Nr_shard.Router.shard_of r' key
      && Nr_shard.Router.shard_of r key >= 0
      && Nr_shard.Router.shard_of r key < shards)

(* --- RESP replies and commands decode back to themselves --- *)

let reply_gen =
  QCheck.Gen.(
    let module C = Nr_kvstore.Command in
    (* Err text travels on a CRLF-terminated line, so keep it line-safe;
       Bulk is length-prefixed and may carry anything. *)
    let line = string_size ~gen:(char_range 'a' 'z') (int_bound 12) in
    let scalar =
      frequency
        [
          (1, return C.Ok_reply);
          (1, return C.Pong);
          (2, map (fun n -> C.Int n) int);
          (3, map (fun s -> C.Bulk s) (string_size (int_bound 16)));
          (2, return C.Nil);
          (1, map (fun s -> C.Err s) line);
        ]
    in
    (* depth 2 nests arrays inside arrays — the EXEC reply shape: a
       transaction whose body contains ZRANGE/MGET answers comes back as
       an array of arrays *)
    let rec tree depth =
      if depth = 0 then scalar
      else
        frequency
          [
            (4, scalar);
            (1, map (fun rs -> C.Array rs) (list_size (int_bound 4) (tree (depth - 1))));
          ]
    in
    tree 2)

let reply_roundtrip =
  QCheck.Test.make ~count:300 ~name:"resp reply roundtrip"
    (QCheck.make reply_gen ~print:(fun r ->
         String.escaped (Nr_kvstore.Resp.encode_reply r)))
    (fun r ->
      let s = Nr_kvstore.Resp.encode_reply r in
      match Nr_kvstore.Resp.parse_reply s with
      | Nr_kvstore.Resp.RParsed (r', consumed) ->
          r = r' && consumed = String.length s
      | _ -> false)

(* Replication ships whole store images inside one bulk ([FULLRESYNC]
   dumps, [CONTINUE] frame batches), so the reply encoder must stay
   binary-safe and linear well past ordinary reply sizes. *)
let big_bulk_roundtrip =
  QCheck.Test.make ~count:12 ~name:"resp bulk binary-safe at snapshot sizes"
    (QCheck.make
       QCheck.Gen.(
         let* n = oneofl [ 1 lsl 10; 1 lsl 16; 1 lsl 20 ] in
         string_size (return n))
       ~print:(fun s -> Printf.sprintf "<%d bytes>" (String.length s)))
    (fun s ->
      let module C = Nr_kvstore.Command in
      let r = C.Array [ C.Bulk "CONTINUE"; C.Int 7; C.Bulk s ] in
      let wire = Nr_kvstore.Resp.encode_reply r in
      match Nr_kvstore.Resp.parse_reply wire with
      | Nr_kvstore.Resp.RParsed (r', consumed) ->
          r = r' && consumed = String.length wire
      | _ -> false)

let command_gen =
  QCheck.Gen.(
    let module C = Nr_kvstore.Command in
    let key = string_size ~gen:(char_range 'a' 'z') (int_range 1 8) in
    let value = string_size (int_bound 12) in
    oneof
      [
        return C.Ping;
        return C.Sync;
        map (fun n -> C.Psync n) int;
        map (fun k -> C.Get k) key;
        map2 (fun k v -> C.Set (k, v)) key value;
        map (fun k -> C.Del k) key;
        map (fun k -> C.Exists k) key;
        map (fun k -> C.Incr k) key;
        map2 (fun k n -> C.Incrby (k, n)) key int;
        map3 (fun k s m -> C.Zadd (k, s, m)) key int int;
        map3 (fun k d m -> C.Zincrby (k, d, m)) key int int;
        map2 (fun k m -> C.Zrank (k, m)) key int;
        map2 (fun k m -> C.Zscore (k, m)) key int;
        map (fun k -> C.Zcard k) key;
        map3 (fun k a b -> C.Zrange (k, a, b)) key int int;
        map2 (fun k m -> C.Zrem (k, m)) key int;
        map (fun ks -> C.Mget ks) (list_size (int_range 1 5) key);
        map
          (fun ps -> C.Mset ps)
          (list_size (int_range 1 5) (pair key value));
        return C.Dbsize;
        return C.Flushall;
        return C.Slowlog_get;
        return C.Slowlog_reset;
        return C.Slowlog_len;
        map2 (fun n ms -> C.Wait (n, ms)) (int_bound 16) (int_bound 10_000);
        map2 (fun id seq -> C.Replack (id, seq)) key nat;
        return C.Multi;
        return C.Exec;
        return C.Discard;
        map (fun k -> C.Watch k) key;
        return C.Unwatch;
        map2 (fun k s -> C.Expire (k, s)) key nat;
        map2 (fun k ms -> C.Pexpire (k, ms)) key nat;
        map2 (fun k d -> C.Pexpireat (k, d)) key nat;
        map (fun k -> C.Ttl k) key;
        map (fun k -> C.Pttl k) key;
        map (fun k -> C.Persist k) key;
        map (fun k -> C.Getver k) key;
        map2 (fun k v -> C.Setver (k, v)) key nat;
        map (fun ms -> C.Tick ms) nat;
        map2 (fun k d -> C.Expire_evict (k, d)) key nat;
        map
          (fun ws -> C.Txn_test ws)
          (list_size (int_range 1 3) (pair key nat));
        (* one level of nesting: bodies are plain commands, the codec's
           count-prefixed token framing must delimit them unambiguously *)
        map2
          (fun ws body -> C.Txn (ws, body))
          (list_size (int_bound 2) (pair key nat))
          (list_size (int_range 1 4)
             (oneof
                [
                  map (fun k -> C.Get k) key;
                  map2 (fun k v -> C.Set (k, v)) key value;
                  map (fun k -> C.Del k) key;
                  map2 (fun k d -> C.Pexpireat (k, d)) key nat;
                  map (fun ks -> C.Mget ks) (list_size (int_range 1 3) key);
                ]));
      ])

let command_roundtrip =
  QCheck.Test.make ~count:300 ~name:"command to_strings/of_strings roundtrip"
    (QCheck.make command_gen ~print:(fun c ->
         String.concat " " (Nr_kvstore.Command.to_strings c)))
    (fun c ->
      Nr_kvstore.Command.of_strings (Nr_kvstore.Command.to_strings c) = Ok c)

(* --- every constructor: wire roundtrip + classification coherence ---

   [Command.exemplars] has one value per constructor, so this pins two
   table-driven totality facts for the whole command alphabet at once:
   the wire codec inverts itself, and the derived predicates
   ([is_read_only], [is_server_local], the kv_server READONLY gate) stay
   consistent views of the single [class_of] classification. *)

let exemplar_totality () =
  let module C = Nr_kvstore.Command in
  List.iter
    (fun c ->
      let name = Format.asprintf "%a" C.pp c in
      Alcotest.(check bool)
        (name ^ " wire roundtrip") true
        (C.of_strings (C.to_strings c) = Ok c);
      (* is_read_only / is_server_local are projections of class_of *)
      let cls = C.class_of c in
      Alcotest.(check bool)
        (name ^ " read-only derives from class") true
        (C.is_read_only c = (cls <> C.Write));
      Alcotest.(check bool)
        (name ^ " server-local derives from class") true
        (C.is_server_local c
        = (cls = C.Server_local || cls = C.Session_state));
      (* the replica write gate refuses exactly the logged commands *)
      Alcotest.(check bool)
        (name ^ " READONLY gate = not read-only") true
        ((not (C.is_read_only c)) = (cls = C.Write)))
    C.exemplars;
  (* a transaction is logged iff its body writes *)
  let module C = Nr_kvstore.Command in
  Alcotest.(check bool)
    "all-read txn takes the read path" true
    (C.class_of (C.Txn ([], [ C.Get "a"; C.Mget [ "b" ] ])) = C.Read);
  Alcotest.(check bool)
    "writing txn is logged" false
    (C.is_read_only (C.Txn ([], [ C.Get "a"; C.Set ("b", "1") ])))

let suite =
  List.map QCheck_alcotest.to_alcotest
    [
      nr_config_linearizable;
      sl_rank_nth_inverse;
      sl_rank_counts_smaller;
      resp_fuzz;
      resp_roundtrip;
      mem_invariants;
      zipf_head_mass;
      zipf_mass_sums_to_one;
      key_dist_in_range;
      router_hash_stable;
      reply_roundtrip;
      big_bulk_roundtrip;
      command_roundtrip;
    ]
  @ [
      Alcotest.test_case "command exemplar totality" `Quick exemplar_totality;
    ]
