(** Schedule explorer: enumerate distinct interleavings of one workload
    and check every recorded history for linearizability.

    One run point is the tuple (topology, threads, seed, salt, plan):
    [seed] draws each thread's operation stream, [salt] perturbs the
    scheduler's same-time tie-break ({!Nr_sim.Sched.set_tie_break}), and
    [plan] names a fault-plan family member — preemption-point
    injection, long stalls that force combiner steals, thread deaths —
    built on {!Nr_sim.Fault_plan}.  The simulator is deterministic, so a
    violation replays byte-identically from its tuple; counterexamples
    carry the exact [lincheck replay] invocation that reproduces them. *)

module FP = Nr_sim.Fault_plan
module T = Nr_sim.Topology
module Method = Nr_harness.Method

(* {2 Engines} *)

type engine =
  | Nr
  | Nr_opt  (** NR + optimistic seqlock reads *)
  | Nr_robust
  | Nr_robust_opt  (** hardened NR + optimistic reads *)
  | Sharded
  | Fc
  | Fcplus
  | Rwl
  | Sl
  | Lf
  | Na

let all_engines =
  [ Nr; Nr_opt; Nr_robust; Nr_robust_opt; Sharded; Fc; Fcplus; Rwl; Sl; Lf; Na ]

let engine_name = function
  | Nr -> "NR"
  | Nr_opt -> "NR-opt"
  | Nr_robust -> "NR-robust"
  | Nr_robust_opt -> "NR-robust-opt"
  | Sharded -> "NR-shard"
  | Fc -> "FC"
  | Fcplus -> "FC+"
  | Rwl -> "RWL"
  | Sl -> "SL"
  | Lf -> "LF"
  | Na -> "NA"

let engine_of_name s =
  List.find_opt
    (fun e -> String.lowercase_ascii (engine_name e) = String.lowercase_ascii s)
    all_engines

(* {2 Fault-plan families}

   Parsed from compact specs so a counterexample tuple stays one line.
   Magnitudes follow the chaos suite: stalls long past the robust
   patience window force handoffs/steals, probabilities keep quick runs
   quick. *)

let plan_of_spec ~spec : FP.t option =
  match String.split_on_char ':' spec with
  | [ "none" ] -> None
  | [ kind; s ] -> (
      match int_of_string_opt s with
      | None -> invalid_arg ("Explore: bad plan seed in " ^ spec)
      | Some seed -> (
          match kind with
          | "jitter" ->
              Some { FP.none with seed; jitter_prob = 0.2; jitter_max = 400 }
          | "preempt" ->
              Some
                {
                  FP.none with
                  seed;
                  preempt_prob = 0.002;
                  preempt_cycles = 20_000;
                }
          | "storm" ->
              (* dense short preemptions: many narrow suspension windows,
                 the family that flushes out single-charge race windows
                 (e.g. a seqlock validation skipped between an unlocked
                 read and its freshness check) *)
              Some
                {
                  FP.none with
                  seed;
                  preempt_prob = 0.05;
                  preempt_cycles = 5_000;
                }
          | "stall" ->
              Some
                { FP.none with seed; stall_prob = 0.002; stall_cycles = 50_000 }
          | "steal" ->
              (* stalls far past [slot_patience] backoff rounds: waiters
                 dispossess the combiner — robust engines only *)
              Some
                {
                  FP.none with
                  seed;
                  stall_prob = 0.001;
                  stall_cycles = 5_000_000;
                }
          | "death" ->
              Some
                {
                  FP.none with
                  seed;
                  stall_prob = 0.0005;
                  stall_cycles = 1_000_000;
                  kill_prob = 0.0005;
                  horizon = 1_000_000_000;
                }
          | _ -> invalid_arg ("Explore: unknown plan family " ^ spec)))
  | _ -> invalid_arg ("Explore: bad plan spec " ^ spec)

(* Steals and deaths assume the hardened protocol: a plain engine whose
   combiner is killed spins its peers until the horizon reaper fires,
   which proves nothing about linearizability and wastes the budget. *)
let plan_allows ~spec engine =
  match String.split_on_char ':' spec with
  | ("steal" | "death") :: _ -> engine = Nr_robust || engine = Nr_robust_opt
  | _ -> true

(* The flag each seeded mutation answers to in a replay invocation: the
   txn substrate plants its bug in the store itself (reads purge expired
   keys without logging), sharded builds plant the router bypass,
   optimistic-read builds skip the seqlock validation, plain NR builds
   the stale read. *)
let mutation_flag ~substrate ~engine =
  if substrate = "txn" then " --mutate-expire-skip-log"
  else
    match engine with
    | "NR-shard" -> " --mutate-router-bypass"
    | "NR-opt" | "NR-robust-opt" -> " --mutate-skip-read-validate"
    | _ -> " --mutate-stale-reads"

let topo_of_name = function
  | "tiny" -> T.tiny
  | "amd" -> T.amd
  | "intel" -> T.intel
  | s -> invalid_arg ("Explore: unknown topology " ^ s)

(* {2 Counterexamples} *)

type cx = {
  substrate : string;
  engine : string;
  topo : string;
  threads : int;
  seed : int;
  salt : int;
  plan : string;
  ops_per_thread : int;
  key_space : int;
  mutation : bool;
  history : string;  (** pretty-printed minimal failing history *)
}

let replay_command cx =
  Printf.sprintf
    "lincheck replay -d %s -e %s -t %s --threads %d --seed %d --salt %d \
     --plan %s --ops %d --keys %d%s"
    cx.substrate cx.engine cx.topo cx.threads cx.seed cx.salt cx.plan
    cx.ops_per_thread cx.key_space
    (if cx.mutation then mutation_flag ~substrate:cx.substrate ~engine:cx.engine
     else "")

let pp_cx ppf cx =
  Format.fprintf ppf
    "NOT LINEARIZABLE: %s/%s on %s (threads=%d seed=%d salt=%d plan=%s)@.\
     minimal failing history:@.%s\
     replay with:@.  %s@."
    cx.substrate cx.engine cx.topo cx.threads cx.seed cx.salt cx.plan
    cx.history (replay_command cx)

type run_stats = { steals : int; kills : int }

type sweep_result = {
  checked : int;  (** histories run and checked *)
  steals : int;  (** combiner steals observed across the sweep *)
  kills : int;  (** thread deaths injected across the sweep *)
  counterexample : cx option;
}

(* {2 The per-substrate runner} *)

module type SUBSTRATE = sig
  module Seq : Nr_core.Ds_intf.S
  module Spec :
    Spec.S with type op = Seq.op and type result = Seq.result

  val name : string
  val factory : unit -> Seq.t

  val prepare : mutation:bool -> bool
  (** Called once per run point, before the engine is built: reset or arm
      any substrate-global hooks (planted store bugs, read-clock
      samplers).  Returns the mutation flag to hand to the {e engine}
      builder — a substrate whose planted bug lives below the engine
      returns [false] so only its own bug is armed. *)

  val gen_op : key_space:int -> Nr_workload.Prng.t -> Seq.op

  val partition : Seq.op -> int
  (** Partition index for compositional checking (linearizability is
      local): per-key for dicts, constant for everything else. *)

  val special :
    engine ->
    (Nr_runtime.Runtime_intf.t -> threads:int -> Seq.op -> Seq.result) option
  (** Builders for the structure-specific engines ([Lf]/[Na]);
      [None] = this substrate has no such baseline. *)

  val sharded :
    (Nr_runtime.Runtime_intf.t ->
    threads:int ->
    mutation:bool ->
    Seq.op ->
    Seq.result)
    option
  (** Builder for the [Sharded] engine ({!Nr_shard.Sharded} over this
      substrate); [mutation] plants {!Nr_core.Config.Router_bypass}.
      [None] = the substrate's keys cannot be hash-partitioned. *)
end

module Run (Sub : SUBSTRATE) = struct
  module W = Nr_harness.Families.Wrap (Sub.Seq)
  module Checker = Wgl.Make (Sub.Spec)

  (* The optimistic-read engine variants: the seqlock read path with
     patience low so retries exhaust quickly under exploration and the
     fallback path gets exercised too. *)
  let opt_cfg base ~mutation =
    {
      base with
      Nr_core.Config.optimistic_reads = true;
      read_patience = Some 4;
      mutation =
        (if mutation then Some Nr_core.Config.Skip_read_validate else None);
    }

  let build engine rt ~threads ~mutation =
    let nr_mutation =
      if mutation then Some Nr_core.Config.Stale_reads else None
    in
    match engine with
    | Lf | Na -> (
        match Sub.special engine with
        | Some f -> Some (f rt ~threads)
        | None -> None)
    | Sharded -> (
        match Sub.sharded with
        | Some f -> Some (f rt ~threads ~mutation)
        | None -> None)
    | Nr ->
        Some
          (W.build rt Method.NR
             ~cfg:{ Nr_core.Config.default with mutation = nr_mutation }
             ~threads ~factory:Sub.factory ())
    | Nr_opt ->
        Some
          (W.build rt Method.NR
             ~cfg:(opt_cfg Nr_core.Config.default ~mutation)
             ~threads ~factory:Sub.factory ())
    | Nr_robust ->
        Some
          (W.build rt Method.NR
             ~cfg:{ Nr_core.Config.robust with mutation = nr_mutation }
             ~threads ~factory:Sub.factory ())
    | Nr_robust_opt ->
        Some
          (W.build rt Method.NR
             ~cfg:(opt_cfg Nr_core.Config.robust ~mutation)
             ~threads ~factory:Sub.factory ())
    | Fc -> Some (W.build rt Method.FC ~threads ~factory:Sub.factory ())
    | Fcplus ->
        Some (W.build rt Method.FCplus ~threads ~factory:Sub.factory ())
    | Rwl -> Some (W.build rt Method.RWL ~threads ~factory:Sub.factory ())
    | Sl -> Some (W.build rt Method.SL ~threads ~factory:Sub.factory ())

  let supports = function
    | Lf | Na as e -> Sub.special e <> None
    | Sharded -> Sub.sharded <> None
    | _ -> true

  (* Execute one run point and record its history.  Returns [None] when
     the engine does not exist for this substrate.  [run_stats] proves a
     fault plan did what its name claims: a steal sweep that never stole
     is not evidence. *)
  let run_once ~topo ~threads ~seed ~salt ~plan ~ops_per_thread ~key_space
      ~engine ~mutation () =
    let topology = topo_of_name topo in
    if threads > T.max_threads topology then
      invalid_arg "Explore: thread count out of range for topology";
    let sched = Nr_sim.Sched.create topology in
    Nr_sim.Sched.set_tie_break sched ~salt;
    Nr_sim.Sched.set_fault_plan sched (plan_of_spec ~spec:plan);
    let rt = Nr_runtime.Runtime_sim.make sched in
    Nr_core.Stats.start_collection ();
    let engine_mutation = Sub.prepare ~mutation in
    match build engine rt ~threads ~mutation:engine_mutation with
    | None ->
        ignore (Nr_core.Stats.collect ());
        None
    | Some exec ->
        let hist = History.create () in
        for tid = 0 to threads - 1 do
          let rng =
            Nr_workload.Prng.create ~seed:(seed + (tid * 7919) + 1)
          in
          Nr_sim.Sched.spawn sched ~tid (fun () ->
              for _ = 1 to ops_per_thread do
                ignore
                  (History.record hist ~tid
                     (Sub.gen_op ~key_space rng)
                     exec)
              done)
        done;
        Nr_sim.Sched.run sched;
        let steals =
          match Nr_core.Stats.collect () with
          | Some st -> st.Nr_core.Stats.combiner_steals
          | None -> 0
        in
        let kills =
          match Nr_sim.Sched.fault_stats sched with
          | Some fs -> fs.FP.kills + fs.FP.horizon_kills
          | None -> 0
        in
        Some (History.events hist, { steals; kills })

  (* Check one history compositionally: split on [Sub.partition], check
     parts in sorted order (determinism), report the first violation. *)
  let check_history ?budget evs =
    let parts = Hashtbl.create 16 in
    Array.iter
      (fun e ->
        let p = Sub.partition e.History.op in
        Hashtbl.replace parts p (e :: (try Hashtbl.find parts p with Not_found -> [])))
      evs;
    let keys = List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) parts []) in
    let rec go = function
      | [] -> Checker.Linearizable
      | k :: rest -> (
          let sub = Array.of_list (List.rev (Hashtbl.find parts k)) in
          match Checker.check ?budget sub with
          | Checker.Linearizable -> go rest
          | v -> v)
    in
    go keys

  let render_history evs =
    Format.asprintf "%a" (History.pp Sub.Spec.pp_op Sub.Spec.pp_result) evs

  let verdict_to_cx ?budget ~topo ~threads ~seed ~salt ~plan ~ops_per_thread
      ~key_space ~engine ~mutation evs =
    match check_history ?budget evs with
    | Checker.Linearizable -> None
    | Checker.Budget_exhausted ->
        (* nothing proven either way: surface loudly rather than letting
           a sweep silently under-check *)
        failwith
          (Printf.sprintf
             "Explore: WGL budget exhausted on %s/%s seed=%d salt=%d \
              plan=%s — shrink the workload or raise the budget"
             Sub.name (engine_name engine) seed salt plan)
    | Checker.Violation minimal ->
        Some
          {
            substrate = Sub.name;
            engine = engine_name engine;
            topo;
            threads;
            seed;
            salt;
            plan;
            ops_per_thread;
            key_space;
            mutation;
            history = render_history minimal;
          }

  (* One run point, checked; [Some cx] on a violation. *)
  let check_one ?budget ~topo ~threads ~seed ~salt ~plan ~ops_per_thread
      ~key_space ~engine ~mutation () =
    match
      run_once ~topo ~threads ~seed ~salt ~plan ~ops_per_thread ~key_space
        ~engine ~mutation ()
    with
    | None -> None
    | Some (evs, _) ->
        verdict_to_cx ?budget ~topo ~threads ~seed ~salt ~plan
          ~ops_per_thread ~key_space ~engine ~mutation evs

  (* The sweep: every (engine, plan, seed, salt) combination the
     substrate and plan families admit, stopping at the first
     counterexample. *)
  let sweep ?budget ~topo ~threads ~seeds ~salts ~plans ~ops_per_thread
      ~key_space ~engines ~mutation () =
    let checked = ref 0 and steals = ref 0 and kills = ref 0 in
    let found = ref None in
    List.iter
      (fun engine ->
        if supports engine then
          List.iter
            (fun plan ->
              if plan_allows ~spec:plan engine then
                List.iter
                  (fun seed ->
                    List.iter
                      (fun salt ->
                        if !found = None then
                          match
                            run_once ~topo ~threads ~seed ~salt ~plan
                              ~ops_per_thread ~key_space ~engine ~mutation
                              ()
                          with
                          | None -> ()
                          | Some (evs, rs) ->
                              incr checked;
                              steals := !steals + rs.steals;
                              kills := !kills + rs.kills;
                              found :=
                                verdict_to_cx ?budget ~topo ~threads ~seed
                                  ~salt ~plan ~ops_per_thread ~key_space
                                  ~engine ~mutation evs)
                      salts)
                  seeds)
            plans)
      engines;
    {
      checked = !checked;
      steals = !steals;
      kills = !kills;
      counterexample = !found;
    }
end

(* {2 Substrate instantiations} *)

module Stack_sub = struct
  module Seq = Nr_seqds.Stack_ds
  module Spec = Spec.Stack

  let name = "stack"
  let factory () = Nr_seqds.Stack_ds.create ()
  let prepare ~mutation = mutation

  let gen_op ~key_space rng : Seq.op =
    if Nr_workload.Prng.below rng 2 = 0 then
      Nr_seqds.Stack_ops.Push (Nr_workload.Prng.below rng key_space)
    else Nr_seqds.Stack_ops.Pop

  let partition (_ : Seq.op) = 0

  let special engine =
    match engine with
    | Lf ->
        Some
          (fun rt ~threads:_ ->
            let module R = (val rt : Nr_runtime.Runtime_intf.S) in
            let module M = Nr_baselines.Lf_stack.Make (R) in
            let t = M.create ~home:0 () in
            function
            | Nr_seqds.Stack_ops.Push v ->
                M.push t v;
                Nr_seqds.Stack_ops.Pushed
            | Nr_seqds.Stack_ops.Pop -> Nr_seqds.Stack_ops.Popped (M.pop t))
    | Na ->
        Some
          (fun rt ~threads:_ ->
            let module R = (val rt : Nr_runtime.Runtime_intf.S) in
            let module M = Nr_baselines.Na_stack.Make (R) in
            let t = M.create ~home:0 () in
            function
            | Nr_seqds.Stack_ops.Push v ->
                M.push t v;
                Nr_seqds.Stack_ops.Pushed
            | Nr_seqds.Stack_ops.Pop -> Nr_seqds.Stack_ops.Popped (M.pop t))
    | _ -> None

  let sharded = None
end

module Queue_sub = struct
  module Seq = Nr_seqds.Queue_ds
  module Spec = Spec.Queue

  let name = "queue"
  let factory () = Nr_seqds.Queue_ds.create ()
  let prepare ~mutation = mutation
  let gen_op ~key_space rng = Nr_harness.Chaos.queue_op key_space rng
  let partition (_ : Seq.op) = 0
  let special (_ : engine) = None
  let sharded = None
end

(* A generic sharded builder: S=4, router-bypass when [mutation]. *)
let shard_cfg ~mutation =
  {
    Nr_core.Config.default with
    shards = 4;
    mutation = (if mutation then Some Nr_core.Config.Router_bypass else None);
  }

module Dict_sub = struct
  module Seq = Nr_seqds.Skiplist_dict
  module Spec = Spec.Dict_key

  let name = "dict"
  let factory () = Nr_seqds.Skiplist_dict.create ()
  let prepare ~mutation = mutation
  let gen_op ~key_space rng = Nr_harness.Chaos.dict_op key_space rng

  let partition : Seq.op -> int = function
    | Nr_seqds.Dict_ops.Insert (k, _)
    | Nr_seqds.Dict_ops.Remove k
    | Nr_seqds.Dict_ops.Lookup k ->
        k

  let special engine =
    match engine with
    | Lf ->
        Some
          (fun rt ~threads:_ ->
            let module R = (val rt : Nr_runtime.Runtime_intf.S) in
            let module M = Nr_baselines.Lf_skiplist.Make (R) in
            let t = M.create ~home:0 () in
            function
            | Nr_seqds.Dict_ops.Insert (k, v) ->
                Nr_seqds.Dict_ops.Added (M.add t k v)
            | Nr_seqds.Dict_ops.Remove k ->
                Nr_seqds.Dict_ops.Removed (M.remove t k)
            | Nr_seqds.Dict_ops.Lookup k ->
                Nr_seqds.Dict_ops.Found (M.get t k))
    | _ -> None

  (* Every dict op touches one int key: shard on its decimal form.  No
     cross-shard ops, so split/merge are unreachable. *)
  module Shardable = struct
    include Nr_seqds.Skiplist_dict

    let route : op -> Nr_shard.Sharded.route = function
      | Nr_seqds.Dict_ops.Insert (k, _)
      | Nr_seqds.Dict_ops.Remove k
      | Nr_seqds.Dict_ops.Lookup k ->
          Nr_shard.Sharded.Single (string_of_int k)

    let split _ ~shards:_ ~shard_of:_ =
      invalid_arg "dict has no cross-shard operations"

    let merge _ ~shards:_ ~shard_of:_ _ =
      invalid_arg "dict has no cross-shard operations"

    let txn = None
  end

  let sharded =
    Some
      (fun rt ~threads:_ ~mutation ->
        let module R = (val rt : Nr_runtime.Runtime_intf.S) in
        let module Sh = Nr_shard.Sharded.Make (R) (Shardable) in
        let t =
          Sh.create ~cfg:(shard_cfg ~mutation)
            ~factory:(fun ~shard:_ ~shard_of:_ () ->
              Nr_seqds.Skiplist_dict.create ())
            ()
        in
        Sh.execute t)
end

module Pq_sub = struct
  module Seq = Nr_seqds.Pairing_pq
  module Spec = Spec.Pq

  let name = "pq"
  let factory () = Nr_seqds.Pairing_pq.create ()
  let prepare ~mutation = mutation
  let gen_op ~key_space rng = Nr_harness.Chaos.pq_op key_space rng
  let partition (_ : Seq.op) = 0
  let special (_ : engine) = None
  let sharded = None
end

(* The KV store over GET/SET/DEL plus the multi-key MGET/MSET — the
   substrate that exercises the cross-shard coordinator.  Checked against
   the whole-map spec with no partitioning: multi-key ops couple keys, so
   per-key composition does not apply. *)
module Kv_sub = struct
  module Seq = Nr_kvstore.Store
  module Spec = Spec.Kv
  module C = Nr_kvstore.Command

  let name = "kv"
  let factory () = Nr_kvstore.Store.create ()

  (* the kv substrate never issues TTL or transaction commands: make sure
     a preceding txn run's global hooks are disarmed so its behavior is
     bit-for-bit the pre-expiry store's *)
  let prepare ~mutation =
    Nr_kvstore.Store.read_clock := None;
    Nr_kvstore.Store.expire_skip_log := false;
    mutation

  let gen_op ~key_space rng : Seq.op =
    let key () =
      Nr_workload.String_keys.key (Nr_workload.Prng.below rng key_space)
    in
    let value () = string_of_int (Nr_workload.Prng.below rng 4) in
    match Nr_workload.Prng.below rng 100 with
    | r when r < 30 -> C.Get (key ())
    | r when r < 55 -> C.Set (key (), value ())
    | r when r < 65 -> C.Del (key ())
    | r when r < 85 -> C.Mget [ key (); key () ]
    | _ -> C.Mset [ (key (), value ()); (key (), value ()) ]

  let partition (_ : Seq.op) = 0
  let special (_ : engine) = None

  let sharded =
    Some
      (fun rt ~threads:_ ~mutation ->
        let module R = (val rt : Nr_runtime.Runtime_intf.S) in
        let module Sh = Nr_shard.Sharded.Make (R) (Nr_shard.Kv_shard) in
        let t =
          Sh.create ~cfg:(shard_cfg ~mutation)
            ~factory:(fun ~shard:_ ~shard_of:_ () -> Nr_kvstore.Store.create ())
            ()
        in
        Sh.execute t)
end

(* The transactions & expiry surface of the KV store: TXN compound
   entries with version-stamp watches, PEXPIREAT deadlines against the
   TICK-driven logical clock, and a sampled read clock that runs ahead of
   it — the substrate whose histories exercise {!Spec.Kv}'s
   expired-or-not windows.  [prepare] arms a deterministic monotone
   sampler (one tick per 64 reads, so small deadlines stay ambiguous for
   a while before the sampler overtakes them) and, under [mutation], the
   planted [Expire_skip_log] bug: reads purge expired keys locally and
   bump the version stamp without logging, so replica stamps diverge —
   which the spec's reads-never-bump rule catches. *)
module Txn_sub = struct
  module Seq = Nr_kvstore.Store
  module Spec = Spec.Kv
  module C = Nr_kvstore.Command
  module P = Nr_workload.Prng

  let name = "txn"
  let factory () = Nr_kvstore.Store.create ()

  let prepare ~mutation =
    let calls = ref 0 in
    Nr_kvstore.Store.read_clock :=
      Some
        (fun () ->
          incr calls;
          !calls lsr 6);
    Nr_kvstore.Store.expire_skip_log := mutation;
    (* the planted bug lives in the store, below every engine *)
    false

  let gen_op ~key_space rng : Seq.op =
    let key () = Nr_workload.String_keys.key (P.below rng key_space) in
    let value () = string_of_int (P.below rng 4) in
    let deadline () = 1 + P.below rng 12 in
    let stamp () = P.below rng 4 in
    let body_cmd () =
      match P.below rng 5 with
      | 0 -> C.Get (key ())
      | 1 -> C.Set (key (), value ())
      | 2 -> C.Del (key ())
      | 3 -> C.Pexpireat (key (), deadline ())
      | _ -> C.Ttl (key ())
    in
    let body () = List.init (1 + P.below rng 2) (fun _ -> body_cmd ()) in
    match P.below rng 100 with
    | r when r < 15 -> C.Get (key ())
    | r when r < 28 -> C.Set (key (), value ())
    | r when r < 34 -> C.Del (key ())
    | r when r < 46 -> C.Pexpireat (key (), deadline ())
    | r when r < 54 -> C.Tick (deadline ())
    | r when r < 60 -> C.Ttl (key ())
    | r when r < 64 -> C.Persist (key ())
    | r when r < 72 -> C.Getver (key ())
    | r when r < 76 -> C.Dbsize
    | r when r < 82 -> C.Txn_test [ (key (), stamp ()) ]
    | r when r < 91 ->
        (* unguarded transaction: always commits *)
        C.Txn ([], body ())
    | _ ->
        (* guarded: stamps start at 0 and move fast, so early watches
           commit and later ones exercise the abort path *)
        C.Txn ([ (key (), stamp ()) ], body ())

  let partition (_ : Seq.op) = 0
  let special (_ : engine) = None

  let sharded =
    Some
      (fun rt ~threads:_ ~mutation ->
        let module R = (val rt : Nr_runtime.Runtime_intf.S) in
        let module Sh = Nr_shard.Sharded.Make (R) (Nr_shard.Kv_shard) in
        let t =
          Sh.create ~cfg:(shard_cfg ~mutation)
            ~factory:(fun ~shard:_ ~shard_of:_ () -> Nr_kvstore.Store.create ())
            ()
        in
        Sh.execute t)
end

module Run_stack = Run (Stack_sub)
module Run_queue = Run (Queue_sub)
module Run_dict = Run (Dict_sub)
module Run_pq = Run (Pq_sub)
module Run_kv = Run (Kv_sub)
module Run_txn = Run (Txn_sub)

let all_substrates = [ "stack"; "queue"; "dict"; "pq"; "kv"; "txn" ]
