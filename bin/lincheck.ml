(* lincheck: linearizability checking of the concurrent engines on the
   deterministic simulator.

     dune exec bin/lincheck.exe -- sweep --scale quick
     dune exec bin/lincheck.exe -- sweep -d dict -e NR,NR-robust \
         --seeds 1,2,3 --salts 0,21,1365 --plans none,stall:5,death:9
     dune exec bin/lincheck.exe -- replay -d dict -e NR -t tiny \
         --threads 4 --seed 3 --salt 21 --plan stall:5 --ops 6 --keys 4

   A sweep exits 1 on the first non-linearizable history and prints its
   minimal counterexample plus the exact replay invocation; --expect-violation
   inverts the exit status for mutation-catch CI steps. *)

open Cmdliner
module E = Nr_check.Explore

let ints_conv ~what =
  let parse s =
    try
      Ok
        (String.split_on_char ',' s
        |> List.filter (fun x -> x <> "")
        |> List.map int_of_string)
    with Failure _ -> Error (`Msg (Printf.sprintf "expected comma-separated %s" what))
  in
  Arg.conv
    ( parse,
      fun ppf l ->
        Format.pp_print_string ppf (String.concat "," (List.map string_of_int l))
    )

let strings_conv =
  let parse s = Ok (String.split_on_char ',' s |> List.filter (fun x -> x <> "")) in
  Arg.conv (parse, fun ppf l -> Format.pp_print_string ppf (String.concat "," l))

let substrates_term =
  Arg.(
    value
    & opt strings_conv E.all_substrates
    & info [ "d"; "substrates" ] ~docv:"DS"
        ~doc:"Substrates to check: stack, queue, dict, pq, kv, txn.")

let engines_conv =
  let parse s =
    let names = String.split_on_char ',' s |> List.filter (fun x -> x <> "") in
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | n :: rest -> (
          match E.engine_of_name n with
          | Some e -> go (e :: acc) rest
          | None -> Error (`Msg (Printf.sprintf "unknown engine %S" n)))
    in
    go [] names
  in
  Arg.conv
    ( parse,
      fun ppf l ->
        Format.pp_print_string ppf
          (String.concat "," (List.map E.engine_name l)) )

let engines_term =
  Arg.(
    value
    & opt engines_conv E.all_engines
    & info [ "e"; "engines" ] ~docv:"ENGINES"
        ~doc:
          "Engines: NR, NR-opt, NR-robust, NR-robust-opt, NR-shard, FC, \
           FC+, RWL, SL, LF, NA.")

let topo_term =
  Arg.(
    value
    & opt string "tiny"
    & info [ "t"; "topology" ] ~docv:"TOPO" ~doc:"Topology: tiny, amd, intel.")

let threads_term =
  Arg.(
    value & opt int 4
    & info [ "threads" ] ~docv:"N" ~doc:"Simulated threads per run.")

let ops_term =
  Arg.(
    value & opt int 6
    & info [ "ops" ] ~docv:"N" ~doc:"Operations per thread per run.")

let keys_term =
  Arg.(
    value & opt int 4
    & info [ "keys" ] ~docv:"N"
        ~doc:"Key space for generated operations (small = more conflicts).")

let mutation_term =
  Arg.(
    value & flag
    & info [ "mutate-stale-reads" ]
        ~doc:
          "Plant the stale-reads bug in NR (skip the completedTail \
           freshness wait) — the sweep must then flag a violation.")

let bypass_term =
  Arg.(
    value & flag
    & info [ "mutate-router-bypass" ]
        ~doc:
          "Plant the router-bypass bug in sharded NR (single-key reads \
           consult the wrong shard) — the NR-shard sweep must then flag a \
           violation.")

let skip_validate_term =
  Arg.(
    value & flag
    & info [ "mutate-skip-read-validate" ]
        ~doc:
          "Plant the skip-read-validate bug in the optimistic-read engines \
           (readers omit the post-read seqlock stamp check) — the \
           NR-opt/NR-robust-opt sweep must then flag a violation.")

let skip_log_term =
  Arg.(
    value & flag
    & info [ "mutate-expire-skip-log" ]
        ~doc:
          "Plant the expire-skip-log bug in the store (reads purge expired \
           keys locally, bumping the version stamp without a log entry, so \
           replica stamps diverge) — the txn sweep must then flag a \
           violation.")

let budget_term =
  Arg.(
    value
    & opt int 2_000_000
    & info [ "budget" ] ~docv:"N" ~doc:"WGL search-node budget per history.")

(* First-class dispatch over the four substrate runners: they share the
   Run functor's shape but differ in every type, so the polymorphic bits
   (cx, counts) are extracted through a record of closures. *)
type runner = {
  sweep :
    budget:int ->
    topo:string ->
    threads:int ->
    seeds:int list ->
    salts:int list ->
    plans:string list ->
    ops_per_thread:int ->
    key_space:int ->
    engines:E.engine list ->
    mutation:bool ->
    E.sweep_result;
  check_one :
    budget:int ->
    topo:string ->
    threads:int ->
    seed:int ->
    salt:int ->
    plan:string ->
    ops_per_thread:int ->
    key_space:int ->
    engine:E.engine ->
    mutation:bool ->
    E.cx option;
}

let runner_of_substrate = function
  | "stack" ->
      {
        sweep =
          (fun ~budget ~topo ~threads ~seeds ~salts ~plans ~ops_per_thread
               ~key_space ~engines ~mutation ->
            E.Run_stack.sweep ~budget ~topo ~threads ~seeds ~salts ~plans
              ~ops_per_thread ~key_space ~engines ~mutation ());
        check_one =
          (fun ~budget ~topo ~threads ~seed ~salt ~plan ~ops_per_thread
               ~key_space ~engine ~mutation ->
            E.Run_stack.check_one ~budget ~topo ~threads ~seed ~salt ~plan
              ~ops_per_thread ~key_space ~engine ~mutation ());
      }
  | "queue" ->
      {
        sweep =
          (fun ~budget ~topo ~threads ~seeds ~salts ~plans ~ops_per_thread
               ~key_space ~engines ~mutation ->
            E.Run_queue.sweep ~budget ~topo ~threads ~seeds ~salts ~plans
              ~ops_per_thread ~key_space ~engines ~mutation ());
        check_one =
          (fun ~budget ~topo ~threads ~seed ~salt ~plan ~ops_per_thread
               ~key_space ~engine ~mutation ->
            E.Run_queue.check_one ~budget ~topo ~threads ~seed ~salt ~plan
              ~ops_per_thread ~key_space ~engine ~mutation ());
      }
  | "dict" ->
      {
        sweep =
          (fun ~budget ~topo ~threads ~seeds ~salts ~plans ~ops_per_thread
               ~key_space ~engines ~mutation ->
            E.Run_dict.sweep ~budget ~topo ~threads ~seeds ~salts ~plans
              ~ops_per_thread ~key_space ~engines ~mutation ());
        check_one =
          (fun ~budget ~topo ~threads ~seed ~salt ~plan ~ops_per_thread
               ~key_space ~engine ~mutation ->
            E.Run_dict.check_one ~budget ~topo ~threads ~seed ~salt ~plan
              ~ops_per_thread ~key_space ~engine ~mutation ());
      }
  | "pq" ->
      {
        sweep =
          (fun ~budget ~topo ~threads ~seeds ~salts ~plans ~ops_per_thread
               ~key_space ~engines ~mutation ->
            E.Run_pq.sweep ~budget ~topo ~threads ~seeds ~salts ~plans
              ~ops_per_thread ~key_space ~engines ~mutation ());
        check_one =
          (fun ~budget ~topo ~threads ~seed ~salt ~plan ~ops_per_thread
               ~key_space ~engine ~mutation ->
            E.Run_pq.check_one ~budget ~topo ~threads ~seed ~salt ~plan
              ~ops_per_thread ~key_space ~engine ~mutation ());
      }
  | "kv" ->
      {
        sweep =
          (fun ~budget ~topo ~threads ~seeds ~salts ~plans ~ops_per_thread
               ~key_space ~engines ~mutation ->
            E.Run_kv.sweep ~budget ~topo ~threads ~seeds ~salts ~plans
              ~ops_per_thread ~key_space ~engines ~mutation ());
        check_one =
          (fun ~budget ~topo ~threads ~seed ~salt ~plan ~ops_per_thread
               ~key_space ~engine ~mutation ->
            E.Run_kv.check_one ~budget ~topo ~threads ~seed ~salt ~plan
              ~ops_per_thread ~key_space ~engine ~mutation ());
      }
  | "txn" ->
      {
        sweep =
          (fun ~budget ~topo ~threads ~seeds ~salts ~plans ~ops_per_thread
               ~key_space ~engines ~mutation ->
            E.Run_txn.sweep ~budget ~topo ~threads ~seeds ~salts ~plans
              ~ops_per_thread ~key_space ~engines ~mutation ());
        check_one =
          (fun ~budget ~topo ~threads ~seed ~salt ~plan ~ops_per_thread
               ~key_space ~engine ~mutation ->
            E.Run_txn.check_one ~budget ~topo ~threads ~seed ~salt ~plan
              ~ops_per_thread ~key_space ~engine ~mutation ());
      }
  | s ->
      Printf.eprintf
        "lincheck: unknown substrate %S (stack|queue|dict|pq|kv|txn)\n" s;
      exit 2

(* -- sweep -- *)

let sweep_run substrates engines topo threads ops keys seeds salts plans
    stale bypass skip_validate skip_log expect_violation budget =
  (* one mutation switch downstream: each substrate/engine plants its own
     seeded bug (txn the store's unlogged expiry purge, NR-shard the
     router bypass, NR-opt/NR-robust-opt the skipped read validation, the
     plain NR engines the stale read) *)
  let mutation = stale || bypass || skip_validate || skip_log in
  let t0 = Unix.gettimeofday () in
  let total = ref 0 and steals = ref 0 and kills = ref 0 in
  let cx = ref None in
  List.iter
    (fun sub ->
      if !cx = None then begin
        let r = runner_of_substrate sub in
        let sr =
          r.sweep ~budget ~topo ~threads ~seeds ~salts ~plans
            ~ops_per_thread:ops ~key_space:keys ~engines ~mutation
        in
        total := !total + sr.E.checked;
        steals := !steals + sr.E.steals;
        kills := !kills + sr.E.kills;
        Printf.printf "%-6s %4d histories checked (steals=%d kills=%d)\n%!"
          sub sr.E.checked sr.E.steals sr.E.kills;
        match sr.E.counterexample with Some c -> cx := Some c | None -> ()
      end)
    substrates;
  let dt = Unix.gettimeofday () -. t0 in
  (match !cx with
  | Some c -> Format.printf "%a" E.pp_cx c
  | None ->
      Printf.printf
        "all %d histories linearizable (steals=%d kills=%d, %.1fs)\n" !total
        !steals !kills dt);
  match (!cx, expect_violation) with
  | Some _, true ->
      print_endline "seeded mutation flagged, as expected";
      0
  | None, true ->
      prerr_endline "lincheck: expected a violation but every history passed";
      1
  | Some _, false -> 1
  | None, false -> 0

let sweep_cmd =
  let seeds =
    Arg.(
      value
      & opt (ints_conv ~what:"seeds") [ 1; 2; 3 ]
      & info [ "seeds" ] ~docv:"SEEDS" ~doc:"Workload seeds to sweep.")
  in
  let salts =
    Arg.(
      value
      & opt (ints_conv ~what:"salts") [ 0; 21; 1365 ]
      & info [ "salts" ] ~docv:"SALTS"
          ~doc:"Scheduler tie-break salts (0 = stock order).")
  in
  let plans =
    Arg.(
      value
      & opt strings_conv [ "none"; "jitter:1"; "stall:1"; "preempt:1"; "steal:1"; "death:1" ]
      & info [ "plans" ] ~docv:"PLANS"
          ~doc:
            "Fault-plan specs: none, jitter:S, stall:S, preempt:S, steal:S, \
             death:S (steal/death apply to the robust engines only).")
  in
  let expect =
    Arg.(
      value & flag
      & info [ "expect-violation" ]
          ~doc:"Exit 0 iff a violation IS found (mutation-catch mode).")
  in
  Cmd.v
    (Cmd.info "sweep" ~doc:"Sweep seeds × salts × plans over DS × engines.")
    Term.(
      const sweep_run $ substrates_term $ engines_term $ topo_term
      $ threads_term $ ops_term $ keys_term $ seeds $ salts $ plans
      $ mutation_term $ bypass_term $ skip_validate_term $ skip_log_term
      $ expect $ budget_term)

(* -- replay -- *)

let replay_run substrate engines topo threads ops keys seed salt plan stale
    bypass skip_validate skip_log budget =
  let mutation = stale || bypass || skip_validate || skip_log in
  let r = runner_of_substrate substrate in
  let engine =
    match engines with
    | [ e ] -> e
    | _ ->
        prerr_endline "lincheck replay: pass exactly one engine with -e";
        exit 2
  in
  match
    r.check_one ~budget ~topo ~threads ~seed ~salt ~plan ~ops_per_thread:ops
      ~key_space:keys ~engine ~mutation
  with
  | Some c ->
      Format.printf "%a" E.pp_cx c;
      1
  | None ->
      Printf.printf "linearizable: %s/%s seed=%d salt=%d plan=%s\n" substrate
        (E.engine_name engine) seed salt plan;
      0

let replay_cmd =
  let substrate =
    Arg.(
      value & opt string "dict"
      & info [ "d"; "substrate" ] ~docv:"DS" ~doc:"Substrate to replay.")
  in
  let seed =
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc:"Workload seed.")
  in
  let salt =
    Arg.(value & opt int 0 & info [ "salt" ] ~docv:"N" ~doc:"Tie-break salt.")
  in
  let plan =
    Arg.(
      value & opt string "none"
      & info [ "plan" ] ~docv:"PLAN" ~doc:"Fault-plan spec.")
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:"Re-run and re-check one (topology, seed, plan) tuple.")
    Term.(
      const replay_run $ substrate $ engines_term $ topo_term $ threads_term
      $ ops_term $ keys_term $ seed $ salt $ plan $ mutation_term
      $ bypass_term $ skip_validate_term $ skip_log_term $ budget_term)

let () =
  let doc = "linearizability checking on the deterministic simulator" in
  exit (Cmd.eval' (Cmd.group (Cmd.info "lincheck" ~doc) [ sweep_cmd; replay_cmd ]))
