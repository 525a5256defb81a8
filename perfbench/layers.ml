(** Per-layer metrics of the traced run, and each layer's share of the
    batch round trip the client observed over TCP. *)

module Gen = Perfbench_core.Gen

let ratio a b = if b = 0. then 0. else a /. b

let metrics ~(spec : Gen.spec) ~(st : Client.stats) ~(rp : Replay.result) ~note =
  let t = rp.traced in
  let sum f = float (Array.fold_left (fun acc a -> acc + f a) 0 t.accs) in
  let sumf f = Array.fold_left (fun acc a -> acc +. f a) 0. t.accs in
  let open Replay in
  let reqs = sum (fun a -> a.reqs) in
  let reads = sum (fun a -> a.reads) and updates = sum (fun a -> a.updates) in
  let nr_ns = sum (fun a -> a.nr_read) +. sum (fun a -> a.nr_update) in
  let logged = sum (fun a -> a.logged) in
  let store_ns_per_op = ratio (float rp.store_ns) (float rp.store_ops) in
  let attempts = sum (fun a -> a.exec_attempts) in
  (* in-process ns per request of each layer the server runs *)
  let per_req x = ratio x reqs in
  let layers =
    [
      ("resp", per_req (sum (fun a -> a.parse) +. sum (fun a -> a.encode)));
      ("command", per_req (sum (fun a -> a.decode)));
      ("txn", per_req (sum (fun a -> a.txn)));
      ("nr", per_req nr_ns);
      ("persist", if spec.aof then per_req (sum (fun a -> a.persist)) else 0.);
    ]
  in
  let rtt_ns = ratio (float st.batch_ns) (float st.batches) in
  let in_process_ns =
    float spec.depth *. List.fold_left (fun acc (_, ns) -> acc +. ns) 0. layers
  in
  let residual_ns = rtt_ns -. in_process_ns in
  let shares =
    List.map (fun (l, ns) -> (l, ratio (float spec.depth *. ns) rtt_ns)) layers
    @ [ ("net", ratio residual_ns rtt_ns) ]
  in
  let top, top_share =
    List.fold_left (fun (l, s) (l', s') -> if s' > s then (l', s') else (l, s)) ("", neg_infinity) shares
  in
  note @@ Printf.sprintf "layer with the largest share of the batch round trip (%.1f us): %s (%.1f%%)"
    (rtt_ns /. 1e3) top (100. *. top_share);
  note @@ Printf.sprintf "replayed %.0f requests in-process; trace: %d spans recorded, %d overwritten (the Chrome file keeps the most recent)"
    reqs rp.trace_events rp.trace_dropped;
  note @@ Printf.sprintf "tracing overhead: replay took %.1f ms traced, %.1f ms untraced"
    (float t.wall_ns /. 1e6) (float rp.untraced.wall_ns /. 1e6);
  [
    ("resp.parse_ns_per_req", per_req (sum (fun a -> a.parse)), "ns");
    ("resp.encode_ns_per_reply", per_req (sum (fun a -> a.encode)), "ns");
    ("resp.minor_words_per_req", ratio (sumf (fun a -> a.resp_words)) reqs, "words");
    ("resp.parse_ns_per_kib", ratio (sum (fun a -> a.parse)) (sum (fun a -> a.req_bytes) /. 1024.), "ns/KiB");
    ("command.decode_ns_per_req", per_req (sum (fun a -> a.decode)), "ns");
    ("txn.step_ns_per_cmd", per_req (sum (fun a -> a.txn)), "ns");
    ( "txn.exec_commit_ratio",
      (* no EXEC attempted: none was wasted *)
      (if attempts = 0. then 1. else ratio (sum (fun a -> a.exec_commits)) attempts),
      "ratio" );
    ("nr.read_ns_per_op", ratio (sum (fun a -> a.nr_read)) reads, "ns");
    ("nr.update_ns_per_op", ratio (sum (fun a -> a.nr_update)) updates, "ns");
    ( "nr.reader_refreshes_per_read",
      ratio (float t.stats.reader_refreshes) (float t.stats.reads),
      "ratio" );
    ("nr.ops_per_combine", Nr_core.Stats.ops_per_combine t.stats, "ops");
    ("nr.minor_words_per_op", ratio (sumf (fun a -> a.nr_words)) (reads +. updates), "words");
    ("nr.overhead_ns_per_op", ratio nr_ns (reads +. updates) -. store_ns_per_op, "ns");
    ("store.exec_ns_per_op", store_ns_per_op, "ns");
    ("persist.observe_ns_per_op", ratio (sum (fun a -> a.persist)) logged, "ns");
    ("persist.fsyncs_per_op", ratio (float t.fsyncs) logged, "ratio");
    ("persist.aof_bytes_per_op", ratio (float t.aof_appended) logged, "B");
    ( "persist.compaction_ms",
      ratio (sum (fun a -> a.compaction) /. 1e6) (sum (fun a -> a.compactions)),
      "ms" );
    ( "persist.dir_bytes_per_user_byte",
      ratio (float t.dir_bytes) (sum (fun a -> a.user_bytes)),
      "ratio" );
    ("net.residual_us_per_batch", residual_ns /. 1e3, "us");
    ("client.cpu_frac", ratio st.cpu_s (float st.window_ns /. 1e9), "frac");
    ("client.gen_ns_per_req", ratio (float st.gen_ns) (float st.gen_reqs), "ns");
    ( "trace.overhead_frac",
      ratio (float (t.wall_ns - rp.untraced.wall_ns)) (float rp.untraced.wall_ns),
      "frac" );
  ]
  @ List.map (fun (l, s) -> ("share." ^ l, s, "frac")) shares
