(** Node Replication (paper §4–§5): the black-box transformation from a
    sequential data structure to a linearizable NUMA-aware concurrent one.

    One replica of the structure lives on each NUMA node.  Within a node,
    threads batch update operations through a flat-combining leader; across
    nodes, combiners synchronize through the shared log.  Read-only
    operations run on the local replica under a distributed readers-writer
    lock after checking freshness against the log's [completed] tail.

    The functor takes the runtime (real domains or the simulator) and the
    sequential structure; the result exposes a single concurrent [execute]
    — the paper's [ExecuteConcurrent]. *)

module Make (R : Nr_runtime.Runtime_intf.S) (Seq : Ds_intf.S) = struct
  module Spin = Nr_sync.Stealable_lock.Make (R)
  module Backoff = Nr_sync.Backoff.Make (R)
  module Rw_dist = Nr_sync.Rwlock_dist.Make (R)
  module Rw_simple = Nr_sync.Rwlock_simple.Make (R)
  module Log = Log.Make (R)

  type rwlock = Dist of Rw_dist.t | Simple of Rw_simple.t

  type slot = {
    request : Seq.op option R.cell;
    response : Seq.result option R.cell;
    mutable seq : int;
        (** incarnation of the posted request, bumped on every (re)post;
            hardened-mode deliveries are guarded on the seq they were
            collected under, so a delivery racing a repost of the same
            slot can never satisfy the wrong incarnation.  Legacy mode
            bumps it but never checks it. *)
    backoff : Backoff.t;
        (** the owning thread's hardened-mode wait ladder; reset before
            each ladder's first round *)
  }

  (* Hardened-mode batch lifecycle, tracked in plain fields of
     [node_state] (free in the simulator's cost model; the descriptor is
     only read and written under ownership rules spelled out at each
     site). *)
  let if_idle = 0
  let if_filling = 1
  let if_applying = 2

  type node_state = {
    node : int;
    replica : Seq.t;
    reg : R.region;
    combiner_lock : Spin.t;
    stamp : int R.cell;
        (** per-replica seqlock version ([cfg.optimistic_reads]): odd
            while a writer-lock section is open, bumped on both edges so
            an optimistic reader can validate that the replica did not
            change across its unlocked access *)
    rw : rwlock;
    slots : slot array;
    stats : Stats.t;
    (* {2 Combiner scratch} — per-node reusable buffers so the combine /
       replay hot paths allocate nothing in steady state (§5.7: the
       machinery must stay leaner than the operations it batches).  All of
       it is only touched under this node's combiner or writer lock. *)
    req_cells : Seq.op option R.cell array;
        (** the [request] cells of [slots], gathered once at creation so a
            scan is a single overlapped batch read *)
    req_buf : Seq.op option array;  (** scratch for scan results *)
    batch_ops : Seq.op option array;
        (** collected batch: the very [Some] boxes the requesters wrote *)
    batch_slots : int array;  (** originating slot of each batch entry *)
    replay_buf : Log.batch;  (** gen-scan scratch for replay windows *)
    mutable on_full_combiner : unit -> unit;
        (** hoisted [on_full] closures: allocated once per node, not once
            per append *)
    mutable on_full_helper : unit -> unit;
    (* {2 Hardened-mode in-flight batch descriptor}

       Published by the combiner so that, should it stall or die, the
       waiter that steals its lock can finish the batch.  All fields are
       plain: [inflight_start] is stored in the same atomic region as the
       log-tail CAS that commits the reservation, so an observer holding
       the (stolen) combiner lock sees either no reservation or the full
       descriptor.  [batch_seqs]/[batch_res] extend the combiner scratch:
       the slot incarnations the batch was collected under, and the
       results of already-applied operations so a recoverer can (re)deliver
       them idempotently. *)
    mutable inflight_gen : int;  (** owning lock tenure; 0 = none *)
    mutable inflight_state : int;  (** [if_idle] / [if_filling] / [if_applying] *)
    mutable inflight_start : int;  (** committed log start, [-1] before *)
    mutable inflight_n : int;
    mutable inflight_applied : int;  (** next batch offset to apply *)
    batch_seqs : int array;
    batch_res : Seq.result option array;
  }

  type t = {
    cfg : Config.t;
    log : Seq.op Log.t;
    node_states : node_state array;
  }

  (* {2 Replica access under the chosen locking regime}

     With [separate_replica_lock] (#3) the replica is guarded by the
     readers-writer lock and the combiner lock only elects the combiner;
     without it, the combiner lock itself guards the replica, so the
     writer-side operations below become no-ops for a thread that already
     holds the combiner lock. *)

  (* [combiner] says whether the caller already holds [ns]'s combiner
     lock: without the separate replica lock (#3 disabled), the combiner
     lock IS the replica lock, so a caller that does not hold it yet must
     take it here (reader-side refreshes, no-flat-combining updaters, the
     dedicated combiner). *)
  let acquire_write t ns ~combiner =
    (if t.cfg.separate_replica_lock then
       match ns.rw with
       | Dist l -> Rw_dist.write_lock l
       | Simple l -> Rw_simple.write_lock l
     else if not combiner then ignore (Spin.lock ns.combiner_lock));
    (* seqlock open edge: every replica mutation path — combines,
       refreshes, recoveries, steals — funnels through this writer lock,
       so bumping here covers them all.  The holder is the stamp's sole
       writer, making the peek free. *)
    if t.cfg.optimistic_reads then R.write ns.stamp (R.peek ns.stamp + 1)

  let release_write t ns ~combiner =
    (* seqlock close edge, before the lock drops *)
    if t.cfg.optimistic_reads then R.write ns.stamp (R.peek ns.stamp + 1);
    if t.cfg.separate_replica_lock then
      match ns.rw with
      | Dist l -> Rw_dist.write_unlock l
      | Simple l -> Rw_simple.write_unlock l
    else if not combiner then Spin.unlock_quiet ns.combiner_lock

  let acquire_read t ns slot_idx =
    if t.cfg.separate_replica_lock then
      match ns.rw with
      | Dist l -> Rw_dist.read_lock l slot_idx
      | Simple l -> Rw_simple.read_lock l
    else ignore (Spin.lock ns.combiner_lock)

  let release_read t ns slot_idx =
    if t.cfg.separate_replica_lock then
      match ns.rw with
      | Dist l -> Rw_dist.read_unlock l slot_idx
      | Simple l -> Rw_simple.read_unlock l
    else Spin.unlock_quiet ns.combiner_lock

  (* {2 Executing operations on a replica} *)

  (* [Footprint.t] is a per-operation record; only build it on runtimes
     that charge it (the simulator).  On domains the replica's real cache
     misses are the cost model, and the combiner applies a whole batch
     without allocating. *)
  let apply ns op =
    if R.charges_footprints then
      R.touch_region ns.reg (Seq.footprint ns.replica op);
    Seq.execute ns.replica op

  (* Replay log entries [local_tail, upto) onto [ns]'s replica.  Caller
     must hold the replica's write-side lock.  At a reserved-but-unfilled
     entry (a hole), [patience < 0] stops: the reader behaviour (§5.3).
     Otherwise the replay waits (§5.1) and, in hardened mode, poisons a
     hole still open after [patience] rounds so the log advances past a
     dead writer; legacy combiners pass [max_int].  Every replica skips
     poisoned entries alike; legacy mode never writes one.

     Response delivery: with flat combining, a node's own operations are
     applied by its combiner from the local slots, never from the log, so
     replay always discards results.  Without it (ablation #1), whichever
     thread replays an entry first must post the result to the originating
     slot — including helpers from other nodes. *)
  (* Apply entry [i] (which must be filled) and, when delivering, post the
     result to the originating slot. *)
  let replay_one t ns ~deliver i =
    let res = apply ns (Log.op_at t.log i) in
    if deliver && Log.origin_node_at t.log i = ns.node then
      R.write ns.slots.(Log.origin_slot_at t.log i).response (Some res)

  (* The loop state (position, bounds, flags) rides in the arguments of
     top-level tail-recursive functions: no state refs and no closures are
     allocated per replay — a [let rec] {e inside} [replay] would cost a
     closure record per call, which on the domains runtime is the hot
     path's entire allocation budget.  [base] is the window start the
     [replay_buf] stamps were scanned from. *)
  let rec replay_run t ns deliver base j stop_at =
    if j < stop_at then begin
      if not (Log.batch_is_poisoned ns.replay_buf (j - base)) then
        replay_one t ns ~deliver j;
      replay_run t ns deliver base (j + 1) stop_at
    end

  let rec replay_window t ns deliver upto patience rounds i =
    if i >= upto then i
    else begin
      let n = min t.cfg.replay_window (upto - i) in
      (* one overlapped gen scan per window, into the node's scratch;
         [replay_buf] is only touched under this node's writer lock, so
         the stamps stay valid across the charged applies below *)
      let filled = Log.read_filled t.log ns.replay_buf i n in
      let stop_at = i + filled in
      replay_run t ns deliver i i stop_at;
      if filled = n then replay_window t ns deliver upto patience 0 stop_at
      else if patience < 0 then stop_at
      else if rounds >= patience then begin
        if Log.poison t.log stop_at then begin
          ns.stats.Stats.poisoned <- ns.stats.Stats.poisoned + 1;
          if Nr_obs.Sink.tracing () then
            Nr_obs.Sink.instant ~tid:(R.tid ()) ~node:ns.node ~cat:"nr"
              ~arg:Nr_obs.Sink.no_arg "poison"
        end;
        replay_window t ns deliver upto patience 0 stop_at
      end
      else if
        (* legacy only: probe the missing entry and take it alone before
           re-fetching a window.  Hardened mode goes straight to the
           yield; giving it the probe changes its timing. *)
        match t.cfg.liveness with
        | None -> Log.is_filled t.log stop_at
        | Some _ -> false
      then begin
        replay_one t ns ~deliver stop_at;
        replay_window t ns deliver upto patience 0 (stop_at + 1)
      end
      else begin
        R.yield ();
        replay_window t ns deliver upto patience (rounds + 1) stop_at
      end
    end

  let replay t ns ~upto ~patience =
    let deliver = not t.cfg.flat_combining in
    let start = Log.local_tail t.log ns.node in
    let fin = replay_window t ns deliver upto patience 0 start in
    if fin <> start then Log.set_local_tail t.log ns.node fin;
    fin

  (* Release a combiner lock held as tenure [gen].  Legacy mode never
     steals, so the holder is the word's sole writer and one plain write
     does; hardened mode must check the tenure is still its own. *)
  let unlock_combiner t ns gen =
    match t.cfg.liveness with
    | None -> Spin.unlock_quiet ns.combiner_lock
    | Some _ -> ignore (Spin.unlock ns.combiner_lock ~gen)

  (* {2 The hardened protocol (liveness mode)}

     Armed by [Config.liveness].  The legacy protocol assumes every
     thread keeps running: a combiner that stalls mid-batch wedges its
     node, a dead thread that reserved log entries wedges every replayer,
     and waiters spin forever.  The hardened protocol tolerates both,
     against the simulator's fault injector:

     - the combiner lock is stealable ({!Nr_sync.Stealable_lock}): a
       waiter whose patience runs out dispossesses the stuck tenure and
       {e recovers} its published in-flight batch;
     - the log-tail CAS that commits a reservation carries an ownership
       guard, so a dispossessed combiner can never commit entries its
       stealer does not know about — the in-flight descriptor is published
       in the same atomic region as the commit;
     - log holes left by dead writers are {e poisoned} after a patience
       bound; every replica skips poisoned entries identically and their
       requesters repost;
     - responses are delivered under per-slot incarnation numbers, so a
       late delivery from a dispossessed combiner cannot satisfy a
       reposted request;
     - the apply phase is serialized by the replica writer lock and
       tracked by [inflight_applied], so the original combiner and a
       recoverer each apply every operation exactly once between them.

     Replay, refresh, helping, the slot drain and the read wait serve
     both protocols: the mode is a patience argument or a [match] on
     [t.cfg.liveness] where they differ, and legacy mode runs under tenure
     0, which [inflight_gen] never leaves.  [combine]/[combine_h] and
     [wait_or_combine]/[update_wait] stay split: legacy advances
     [completed] before applying its batch and posts each response as it
     is computed, unlike [finish_batch], and the goldens pin that order. *)

  (* Drop the in-flight descriptor: no batch, no owning tenure. *)
  let retire ns =
    ns.inflight_state <- if_idle;
    ns.inflight_gen <- 0

  (* Complete the in-flight batch: replay the foreign prefix, apply
     whatever the previous holder had not applied yet, jump the local tail
     over the batch, then (when [deliver]) deliver the responses.  The
     body of [finish_batch], shared with the lock-free post-mortem
     [Unsafe.finish_inflight]. *)
  let complete_batch t ns ~patience ~deliver =
    let start = ns.inflight_start and n = ns.inflight_n in
    let end_ = start + n in
    ns.inflight_state <- if_applying;
    ignore (replay t ns ~upto:start ~patience);
    (* apply before the local-tail jump: while our tail sits at [start]
       the range cannot be recycled, so the poison checks below read this
       lap's stamps *)
    for k = ns.inflight_applied to n - 1 do
      (match ns.batch_ops.(k) with
      | Some op ->
          (* an entry that lost its fill/poison race is skipped by every
             replica alike; its requester reposts *)
          if not (Log.is_poisoned t.log (start + k)) then
            ns.batch_res.(k) <- Some (apply ns op)
      | None -> ());
      ns.inflight_applied <- k + 1
    done;
    (* own batch is applied from the scratch, not the log: jump over it
       (all local-tail writes happen under this writer lock, so the plain
       store cannot regress a concurrent advance) *)
    Log.set_local_tail t.log ns.node end_;
    Log.advance_completed t.log end_;
    (* (re)deliver under the collected incarnations: a requester that
       already consumed its response and reposted carries a newer seq, so
       a stale redelivery falls out at the guard *)
    if deliver then
      for k = 0 to n - 1 do
        match ns.batch_res.(k) with
        | Some _ as res ->
            let slot = ns.slots.(ns.batch_slots.(k)) in
            let sq = ns.batch_seqs.(k) in
            ignore
              (R.guarded_write slot.response
                 ~guard:(fun () -> slot.seq = sq)
                 res)
        | None -> ()
      done;
    for k = 0 to n - 1 do
      ns.batch_ops.(k) <- None;
      ns.batch_res.(k) <- None
    done;
    retire ns

  (* Runs [complete_batch] for tenure [gen] under the node's writer lock,
     which serializes the original (possibly dispossessed) combiner
     against any recoverer: whoever holds the lock advances
     [inflight_applied]; the other finds nothing left.  The [gen] tag
     keeps a resumed zombie from adopting a {e newer} descriptor its
     stealer published after finishing this one. *)
  let finish_batch t ns ~gen ~patience =
    acquire_write t ns ~combiner:true;
    if
      ns.inflight_state <> if_idle
      && ns.inflight_gen = gen
      && ns.inflight_start >= 0
    then complete_batch t ns ~patience ~deliver:true;
    release_write t ns ~combiner:true

  (* (Re-)fill the batch committed at [start] from the scratch, racing
     hole-poisoners and any other filler of the same batch.  [start] and
     [n] are the caller's: a dispossessed filler must not pick up a newer
     descriptor mid-loop. *)
  let fill_inflight t ns start n =
    for k = 0 to n - 1 do
      match ns.batch_ops.(k) with
      | Some op ->
          ignore
            (Log.fill_checked t.log (start + k) ~op ~origin_node:ns.node
               ~origin_slot:ns.batch_slots.(k))
      | None -> ()
    done

  (* Adopt whatever batch a previous tenure left behind; called with the
     combiner lock held (freshly acquired or stolen).  The dispossessed
     combiner may still be running: every step is idempotent against it
     (poison-respecting refills, writer-lock-serialized apply, guarded
     delivery).  In legacy mode no batch is ever in flight. *)
  let recover t ns ~patience =
    if ns.inflight_state <> if_idle then begin
      let gen = ns.inflight_gen in
      ns.stats.Stats.batches_recovered <-
        ns.stats.Stats.batches_recovered + 1;
      if Nr_obs.Sink.tracing () then
        Nr_obs.Sink.instant ~tid:(R.tid ()) ~node:ns.node ~cat:"nr"
          ~arg:Nr_obs.Sink.no_arg "batch_recover";
      if ns.inflight_start >= 0 then begin
        fill_inflight t ns ns.inflight_start ns.inflight_n;
        finish_batch t ns ~gen ~patience
      end
      else
        (* the reservation never committed (the guarded tail CAS makes
           that airtight), so the log holds nothing of this batch; the
           drained requests are lost and their owners repost on their own
           patience timeout *)
        retire ns
    end

  (* Dispossess [ns]'s combiner tenure [gen] (hardened mode only);
     returns the stealer's generation, or [0] if [gen] is no longer
     current.  [event] names the trace instant. *)
  let steal_combiner ns ~gen event =
    let g = Spin.steal ns.combiner_lock ~gen in
    if g <> 0 then begin
      ns.stats.Stats.combiner_steals <- ns.stats.Stats.combiner_steals + 1;
      if Nr_obs.Sink.tracing () then
        Nr_obs.Sink.instant ~tid:(R.tid ()) ~node:ns.node ~cat:"nr"
          ~arg:Nr_obs.Sink.no_arg event
    end;
    g

  (* When an append stalls because the log is full, advance replicas so
     their local tails stop holding the log back: first our own, then any
     laggard node with no active combiner — the paper's inactive-replica
     problem (§6), solved here by helping instead of a dedicated combiner.
     Helping another node requires both its combiner lock (so we never race
     an in-flight combiner whose own batch must come from its local slots)
     and its writer lock; [try_lock] keeps this deadlock-free.

     Hardened mode poisons holes after [patience] rounds and, once
     [steal_laggards] (the bounded wait's escalation), steals a laggard's
     lock that stayed stuck across the whole patience window and recovers
     its batch remotely.  Legacy mode passes [-1] and never steals. *)
  let help_advance t ns ~combiner ~patience ~steal_laggards =
    ns.stats.Stats.log_full_stalls <- ns.stats.Stats.log_full_stalls + 1;
    if Nr_obs.Sink.tracing () then
      Nr_obs.Sink.span_begin ~tid:(R.tid ()) ~node:ns.node ~cat:"nr"
        "log_full_stall";
    let target = Log.tail t.log in
    acquire_write t ns ~combiner;
    ignore (replay t ns ~upto:target ~patience);
    release_write t ns ~combiner;
    Array.iter
      (fun other ->
        if
          other.node <> ns.node
          && Log.local_tail t.log other.node < target
        then begin
          let g = Spin.try_lock other.combiner_lock in
          let g =
            if g <> 0 || not steal_laggards then g
            else begin
              let held = Spin.read_gen other.combiner_lock in
              if held land 1 = 1 then
                steal_combiner other ~gen:held "remote_steal"
              else 0
            end
          in
          if g <> 0 then begin
            ns.stats.Stats.remote_refreshes <-
              ns.stats.Stats.remote_refreshes + 1;
            recover t other ~patience;
            acquire_write t other ~combiner:true;
            ignore (replay t other ~upto:target ~patience);
            release_write t other ~combiner:true;
            unlock_combiner t other g
          end
        end)
      t.node_states;
    if Nr_obs.Sink.tracing () then
      Nr_obs.Sink.span_end ~tid:(R.tid ()) ~node:ns.node ~cat:"nr"
        ~arg:Nr_obs.Sink.no_arg "log_full_stall"

  let create ?(cfg = Config.default) replica_factory =
    Config.validate cfg;
    let nodes = R.num_nodes () in
    let spn = R.threads_per_node () in
    let log = Log.create ~home:0 ~size:cfg.log_size ~nodes () in
    let make_node node =
      let replica = replica_factory () in
      let slots =
        Array.init spn (fun _ ->
            {
              request = R.cell ~home:node None;
              response = R.cell ~home:node None;
              seq = 0;
              backoff = Backoff.create ();
            })
      in
      (* a combiner scans once plus up to [min_batch_retries] rescans, and
         a drained slot cannot repost before its response arrives, so the
         batch never exceeds this capacity *)
      let batch_cap = spn * (cfg.min_batch_retries + 1) in
      {
        node;
        replica;
        reg = R.region ~home:node ~lines:(max 1 (Seq.lines replica)) ();
        combiner_lock = Spin.create ~home:node ();
        stamp = R.cell ~home:node 0;
        rw =
          (if cfg.distributed_rwlock then
             Dist
               (Rw_dist.create ~home:node ~readers:spn
                  ?patience:cfg.read_patience ())
           else Simple (Rw_simple.create ~home:node ()));
        slots;
        stats = Stats.create ();
        req_cells = Array.map (fun s -> s.request) slots;
        req_buf = Array.make spn None;
        batch_ops = Array.make batch_cap None;
        batch_slots = Array.make batch_cap 0;
        replay_buf = Log.batch ();
        on_full_combiner = ignore;
        on_full_helper = ignore;
        inflight_gen = 0;
        inflight_state = if_idle;
        inflight_start = -1;
        inflight_n = 0;
        inflight_applied = 0;
        batch_seqs = Array.make batch_cap 0;
        batch_res = Array.make batch_cap None;
      }
    in
    let t = { cfg; log; node_states = Array.init nodes make_node } in
    Array.iter
      (fun ns ->
        ns.on_full_combiner <-
          (fun () ->
            help_advance t ns ~combiner:true ~patience:(-1)
              ~steal_laggards:false);
        ns.on_full_helper <-
          (fun () ->
            help_advance t ns ~combiner:false ~patience:(-1)
              ~steal_laggards:false))
      t.node_states;
    Stats.register_collector (fun () ->
        let acc = Stats.create () in
        Array.iter (fun ns -> Stats.add acc ns.stats) t.node_states;
        acc);
    t

  (* Refresh the replica up to [completed]; used by a waiting combiner
     (MIN_BATCH, §5.2) and the dedicated combiner.  Everything below
     [completed] is resolved, so no patience is needed. *)
  let refresh t ns ~combiner =
    acquire_write t ns ~combiner;
    ignore (replay t ns ~upto:(Log.completed t.log) ~patience:(-1));
    release_write t ns ~combiner

  (* {2 The combiner (§5.2)} *)

  (* Drain this node's request slots into its batch scratch starting at
     index [count]; returns the new count, or [-1] once tenure [gen] is
     dispossessed.  One overlapped read of every slot cell, no
     allocation: the collected entries are the requesters' own [Some]
     boxes.  Legacy mode takes each request with a plain write.  Hardened
     mode takes it with a CAS guarded on still owning the tenure, and the
     plain scratch stores ride in the same atomic region, so a
     dispossessed combiner can neither lose a request silently nor stomp
     its stealer's scratch. *)
  let rec collect_reqs t ns gen spn i c =
    if i = spn then c
    else
      match Array.unsafe_get ns.req_buf i with
      | Some _ as req ->
          let slot = ns.slots.(i) in
          let taken =
            match t.cfg.liveness with
            | None ->
                R.write slot.request None;
                true
            | Some _ ->
                R.guarded_cas slot.request
                  ~guard:(fun () -> ns.inflight_gen = gen)
                  req None
          in
          if taken then begin
            ns.batch_ops.(c) <- req;
            ns.batch_slots.(c) <- i;
            ns.batch_seqs.(c) <- slot.seq;
            collect_reqs t ns gen spn (i + 1) (c + 1)
          end
          else if ns.inflight_gen <> gen then -1
          else collect_reqs t ns gen spn (i + 1) c
      | None -> collect_reqs t ns gen spn (i + 1) c

  let scan_slots t ns gen count =
    let spn = Array.length ns.req_cells in
    R.read_all_into ns.req_cells ~n:spn ~dst:ns.req_buf;
    if ns.inflight_gen <> gen then -1
    else collect_reqs t ns gen spn 0 count

  (* Batch size is an int counter threaded through tail calls — no list,
     no length recomputation, no state refs; top-level for the same
     no-closure reason as [replay_window]. *)
  let rec min_batch t ns gen count retries =
    if count < 0 then -1
    else if count >= t.cfg.min_batch || retries = 0 then count
    else begin
      (* too small a batch: refresh the replica rather than idle (§5.2) *)
      refresh t ns ~combiner:true;
      if ns.inflight_gen <> gen then -1
      else min_batch t ns gen (scan_slots t ns gen count) (retries - 1)
    end

  (* Execute a combined batch from the node-local slots; returns the
     response for [my_idx]'s own operation.  The only allocations are the
     [Some] response boxes handed to waiters. *)
  let rec apply_batch t ns n my_idx k own =
    if k = n then own
    else begin
      let own =
        match ns.batch_ops.(k) with
        | Some op ->
            let res = apply ns op in
            let idx = ns.batch_slots.(k) in
            if idx = my_idx then Some res
            else begin
              R.write ns.slots.(idx).response (Some res);
              own
            end
        | None -> assert false
      in
      (* drop the box so the GC does not retain consumed operations *)
      ns.batch_ops.(k) <- None;
      apply_batch t ns n my_idx (k + 1) own
    end

  (* Runs with the combiner lock held; releases it before returning. *)
  let combine t ns my_idx =
    if Nr_obs.Sink.tracing () then
      Nr_obs.Sink.span_begin ~tid:(R.tid ()) ~node:ns.node ~cat:"nr" "combine";
    let n =
      min_batch t ns 0 (scan_slots t ns 0 0) t.cfg.min_batch_retries
    in
    Stats.record_batch ns.stats n;
    let start =
      Log.append_batch t.log ~ops:ns.batch_ops ~slots:ns.batch_slots ~n
        ~origin_node:ns.node ~on_full:ns.on_full_combiner
    in
    if Nr_obs.Sink.tracing () then
      Nr_obs.Sink.instant ~tid:(R.tid ()) ~node:ns.node ~cat:"nr" ~arg:n
        "append";
    let end_ = start + n in
    if not t.cfg.parallel_replica_update then
      (* ablation #4: serialize replica updates across nodes *)
      while Log.completed t.log < start do
        R.yield ()
      done;
    acquire_write t ns ~combiner:true;
    ignore (replay t ns ~upto:start ~patience:max_int);
    Log.set_local_tail t.log ns.node end_;
    (* one CAS carries [completed] over the whole batch *)
    Log.advance_completed t.log end_;
    (* execute own batch from the node-local slots, not from the log *)
    let own = apply_batch t ns n my_idx 0 None in
    release_write t ns ~combiner:true;
    (* batch size rides on the end event so the span is self-describing *)
    if Nr_obs.Sink.tracing () then
      Nr_obs.Sink.span_end ~tid:(R.tid ()) ~node:ns.node ~cat:"nr" ~arg:n
        "combine";
    Spin.unlock_quiet ns.combiner_lock;
    match own with
    | Some r -> r
    | None ->
        (* own request consumed by min-batch rescan logic is impossible:
           we posted before locking and hold the lock throughout *)
        assert false

  let rec wait_or_combine t ns my_idx =
    let slot = ns.slots.(my_idx) in
    if Spin.try_lock ns.combiner_lock <> 0 then
      match R.read slot.response with
      | Some r ->
          (* a previous combiner served us just before we got the lock *)
          Spin.unlock_quiet ns.combiner_lock;
          r
      | None -> combine t ns my_idx
    else slot_wait t ns my_idx slot

  (* top-level (not a [let rec] under [wait_or_combine]) so waiting for a
     combiner allocates nothing *)
  and slot_wait t ns my_idx slot =
    match R.read slot.response with
    | Some r -> r
    | None ->
        if Spin.locked ns.combiner_lock then begin
          R.yield ();
          slot_wait t ns my_idx slot
        end
        else wait_or_combine t ns my_idx

  (* Hardened combine, holding tenure [gen].  Publishes the in-flight
     descriptor before touching any scratch, commits the reservation with
     an ownership-guarded CAS (the descriptor's [inflight_start] is
     stored in the same atomic region as a successful commit), fills with
     poison-respecting CASes and finishes under the writer lock.  Always
     consumes the tenure: unlocks on completion, and on dispossession the
     stealer has already recovered — everything past the commit is
     idempotent.  Never returns its own response; the caller re-reads its
     slot. *)
  let combine_h t ns gen (lv : Config.liveness) =
    if Nr_obs.Sink.tracing () then
      Nr_obs.Sink.span_begin ~tid:(R.tid ()) ~node:ns.node ~cat:"nr" "combine";
    ns.inflight_gen <- gen;
    ns.inflight_state <- if_filling;
    ns.inflight_start <- -1;
    ns.inflight_n <- 0;
    ns.inflight_applied <- 0;
    let n =
      min_batch t ns gen (scan_slots t ns gen 0) t.cfg.min_batch_retries
    in
    if n <= 0 then begin
      (* dispossessed ([-1]) or nothing to combine: retire the tenure if
         it is still ours (plain check-and-store, atomic in the model) *)
      if n = 0 && ns.inflight_gen = gen then begin
        retire ns;
        ignore (Spin.unlock ns.combiner_lock ~gen)
      end;
      if Nr_obs.Sink.tracing () then
        Nr_obs.Sink.span_end ~tid:(R.tid ()) ~node:ns.node ~cat:"nr"
          ~arg:(max n 0) "combine"
    end
    else begin
      Stats.record_batch ns.stats n;
      ns.inflight_n <- n;
      let full_rounds = ref 0 in
      let on_full () =
        incr full_rounds;
        help_advance t ns ~combiner:true ~patience:lv.Config.hole_patience
          ~steal_laggards:(!full_rounds >= lv.Config.full_patience);
        if !full_rounds >= lv.Config.full_patience then full_rounds := 0;
        true
      in
      let guard () = Spin.peek_gen ns.combiner_lock = gen in
      let start = Log.reserve_guarded t.log n ~guard ~on_full in
      if start >= 0 then begin
        (* no suspension point since the commit: publishing [start] here
           is atomic with the reservation *)
        ns.inflight_start <- start;
        fill_inflight t ns start n;
        if Nr_obs.Sink.tracing () then
          Nr_obs.Sink.instant ~tid:(R.tid ()) ~node:ns.node ~cat:"nr" ~arg:n
            "append";
        if not t.cfg.parallel_replica_update then
          while Log.completed t.log < start do
            R.yield ()
          done;
        finish_batch t ns ~gen ~patience:lv.Config.hole_patience;
        ignore (Spin.unlock ns.combiner_lock ~gen)
      end;
      (* [start < 0]: the tenure was stolen mid-wait — the stealer owns
         descriptor and lock now; nothing to undo, nothing to unlock *)
      if Nr_obs.Sink.tracing () then
        Nr_obs.Sink.span_end ~tid:(R.tid ()) ~node:ns.node ~cat:"nr" ~arg:n
          "combine"
    end

  (* Hardened update wait loop: track the lock tenure; a tenure that
     stays unchanged across [slot_patience] backoff rounds without
     serving us is presumed stuck and stolen.  On becoming combiner
     (acquire or steal) we first [recover] the predecessor's batch — only
     after that settles is "no response and no pending request" proof
     that our operation will never be applied, making the repost safe. *)
  let rec update_wait t ns slot op lv b rounds last_gen =
    match R.read slot.response with
    | Some r -> r
    | None ->
        let g = Spin.read_gen ns.combiner_lock in
        if g land 1 = 0 then begin
          let gen = Spin.try_lock ns.combiner_lock in
          if gen <> 0 then become_combiner t ns slot op lv b gen
          else update_wait t ns slot op lv b rounds last_gen
        end
        else if g <> last_gen then begin
          (* new tenure: it may serve us — restart the patience window *)
          Backoff.reset b;
          Backoff.once b;
          update_wait t ns slot op lv b 0 g
        end
        else if rounds >= lv.Config.slot_patience then begin
          let gen = steal_combiner ns ~gen:g "combiner_steal" in
          if gen <> 0 then become_combiner t ns slot op lv b gen
          else update_wait t ns slot op lv b 0 last_gen
        end
        else begin
          Backoff.once b;
          update_wait t ns slot op lv b (rounds + 1) last_gen
        end

  and become_combiner t ns slot op lv b gen =
    recover t ns ~patience:lv.Config.hole_patience;
    match R.read slot.response with
    | Some r ->
        ignore (Spin.unlock ns.combiner_lock ~gen);
        r
    | None ->
        if R.read slot.request = None then begin
          (* our request was drained but, post-recovery, neither applied
             nor pending: its entry was poisoned or its batch abandoned
             pre-commit.  Re-submit under a fresh incarnation. *)
          ns.stats.Stats.reposts <- ns.stats.Stats.reposts + 1;
          if Nr_obs.Sink.tracing () then
            Nr_obs.Sink.instant ~tid:(R.tid ()) ~node:ns.node ~cat:"nr"
              ~arg:Nr_obs.Sink.no_arg "repost";
          slot.seq <- slot.seq + 1;
          R.write slot.request (Some op)
        end;
        combine_h t ns gen lv;
        Backoff.reset b;
        update_wait t ns slot op lv b 0 0

  (* Post the request to this thread's slot, then wait for a combiner or
     become one. *)
  let execute_update t ns my_idx op =
    ns.stats.Stats.updates <- ns.stats.Stats.updates + 1;
    let slot = ns.slots.(my_idx) in
    slot.seq <- slot.seq + 1;
    R.write slot.response None;
    R.write slot.request (Some op);
    match t.cfg.liveness with
    | None -> wait_or_combine t ns my_idx
    | Some lv -> update_wait t ns slot op lv slot.backoff 0 0

  (* Ablation #1: no flat combining — each thread appends its own operation
     and applies the log itself under the writer lock.  Entries carry their
     origin so whichever same-node thread replays an entry first posts the
     response to its owner. *)
  let execute_update_nofc t ns my_idx op =
    ns.stats.Stats.updates <- ns.stats.Stats.updates + 1;
    let slot = ns.slots.(my_idx) in
    R.write slot.response None;
    let start =
      Log.append1 t.log op ~origin_node:ns.node ~origin_slot:my_idx
        ~on_full:ns.on_full_helper
    in
    if Nr_obs.Sink.tracing () then
      Nr_obs.Sink.instant ~tid:(R.tid ()) ~node:ns.node ~cat:"nr" ~arg:1
        "append";
    acquire_write t ns ~combiner:false;
    ignore (replay t ns ~upto:(start + 1) ~patience:max_int);
    Log.advance_completed t.log (start + 1);
    release_write t ns ~combiner:false;
    let rec take () =
      match R.read slot.response with
      | Some r -> r
      | None ->
          R.yield ();
          take ()
    in
    take ()

  (* {2 Read-only operations (§5.3, §5.4)} *)

  (* The log position a read must observe: [completed] with the read
     optimization (#2), the raw tail without it.  The stale-reads
     mutation pretends the replica is always fresh enough. *)
  let read_target t =
    match t.cfg.mutation with
    | Some Config.Stale_reads -> 0
    | Some Config.Router_bypass | Some Config.Skip_read_validate | None ->
        if t.cfg.read_optimization then Log.completed t.log
        else Log.tail t.log

  (* Wait until [ns]'s replica reaches [read_tail], refreshing it ourselves
     whenever no combiner holds the lock.  While one does, legacy mode
     yields; hardened mode tracks the tenure, and one unchanged across
     [slot_patience] backoff rounds is presumed stuck, stolen, and its
     batch recovered.  Hardened self-refreshes poison holes after
     [hole_patience], so a lone surviving reader still gets a fresh
     replica when every writer on the node is dead. *)
  let rec read_wait t ns read_tail b rounds last_gen =
    if Log.local_tail t.log ns.node < read_tail then begin
      let g = Spin.read_gen ns.combiner_lock in
      if g land 1 = 0 then begin
        ns.stats.Stats.reader_refreshes <- ns.stats.Stats.reader_refreshes + 1;
        if Nr_obs.Sink.tracing () then
          Nr_obs.Sink.instant ~tid:(R.tid ()) ~node:ns.node ~cat:"nr"
            ~arg:Nr_obs.Sink.no_arg "reader_refresh";
        let patience =
          match t.cfg.liveness with
          | None -> -1
          | Some lv -> lv.Config.hole_patience
        in
        acquire_write t ns ~combiner:false;
        if Log.local_tail t.log ns.node < read_tail then
          ignore (replay t ns ~upto:read_tail ~patience);
        release_write t ns ~combiner:false;
        read_wait t ns read_tail b rounds last_gen
      end
      else
        match t.cfg.liveness with
        | None ->
            R.yield ();
            read_wait t ns read_tail b rounds last_gen
        | Some lv ->
            if g <> last_gen then begin
              Backoff.reset b;
              Backoff.once b;
              read_wait t ns read_tail b 0 g
            end
            else if rounds >= lv.Config.slot_patience then begin
              let gen = steal_combiner ns ~gen:g "combiner_steal" in
              if gen <> 0 then begin
                recover t ns ~patience:lv.Config.hole_patience;
                ignore (Spin.unlock ns.combiner_lock ~gen)
              end;
              Backoff.reset b;
              read_wait t ns read_tail b 0 0
            end
            else begin
              Backoff.once b;
              read_wait t ns read_tail b (rounds + 1) last_gen
            end
    end

  (* The slot path, also the optimistic path's fallback *)
  let execute_read_slow t ns my_idx op =
    read_wait t ns (read_target t) ns.slots.(my_idx).backoff 0 0;
    acquire_read t ns my_idx;
    let r = apply ns op in
    release_read t ns my_idx;
    r

  let execute_read t ns my_idx op =
    ns.stats.Stats.reads <- ns.stats.Stats.reads + 1;
    execute_read_slow t ns my_idx op

  (* {2 Optimistic local reads (seqlock fast path)}

     With [Config.optimistic_reads] a read first tries to run against the
     local replica {e without} acquiring a reader slot, validated by the
     per-replica seqlock stamp:

     - read the stamp [s1]; an odd value means a writer section is open,
       so back off and retry;
     - run the read-only operation directly on the replica (no lock);
     - check freshness: the replica's [local_tail] must have reached the
       read's target position.  This check deliberately happens {e after}
       the unlocked read — sound because of the next step;
     - re-read the stamp: if it still equals [s1], no writer section
       opened anywhere in the span, so the replica (and [local_tail],
       which only moves inside writer sections) were constant across it,
       and the freshness observed mid-span vouches for the very state the
       read saw.  A changed stamp invalidates the attempt: retry.

     Stale replica (freshness fails on a quiet replica) or exhausted
     retries fall back to the slot path, which refreshes as usual.  The
     retry budget is [Config.read_patience] when set — the same knob that
     caps the rwlock reader backoff — else [default_opt_retries].

     The [Skip_read_validate] mutation omits the final stamp re-check,
     re-introducing the torn-read window this protocol exists to close;
     [bin/lincheck] demonstrates the resulting violations. *)

  let default_opt_retries = 3

  let rec opt_attempt t ns op ~read_tail ~skip_validate retries_left =
    let s1 = R.read ns.stamp in
    if s1 land 1 = 1 && not skip_validate then
      opt_retry t ns op ~read_tail ~skip_validate retries_left
    else
      let r = apply ns op in
      if Log.local_tail t.log ns.node < read_tail then
        (* Replica genuinely stale (or torn): let the slot path refresh. *)
        None
      else if skip_validate || R.read ns.stamp = s1 then begin
        ns.stats.Stats.opt_reads <- ns.stats.Stats.opt_reads + 1;
        Some r
      end
      else opt_retry t ns op ~read_tail ~skip_validate retries_left

  and opt_retry t ns op ~read_tail ~skip_validate retries_left =
    if retries_left <= 0 then None
    else begin
      ns.stats.Stats.opt_retries <- ns.stats.Stats.opt_retries + 1;
      R.yield ();
      opt_attempt t ns op ~read_tail ~skip_validate (retries_left - 1)
    end

  let execute_read_opt t ns my_idx op =
    ns.stats.Stats.reads <- ns.stats.Stats.reads + 1;
    let read_tail = read_target t in
    let skip_validate = t.cfg.mutation = Some Config.Skip_read_validate in
    let retries =
      Option.value t.cfg.read_patience ~default:default_opt_retries
    in
    match opt_attempt t ns op ~read_tail ~skip_validate retries with
    | Some r -> r
    | None ->
        ns.stats.Stats.opt_fallbacks <- ns.stats.Stats.opt_fallbacks + 1;
        execute_read_slow t ns my_idx op

  (* {2 The concurrent entry point (paper's ExecuteConcurrent)} *)

  let execute t op =
    let node = R.my_node () in
    let ns = t.node_states.(node) in
    let my_idx = R.tid () mod R.threads_per_node () in
    if Seq.is_read_only op then
      if t.cfg.optimistic_reads then execute_read_opt t ns my_idx op
      else execute_read t ns my_idx op
    else if t.cfg.flat_combining then execute_update t ns my_idx op
    else
      (* legacy only: [Config.validate] requires flat combining in
         liveness mode *)
      execute_update_nofc t ns my_idx op

  (* {2 Dedicated combiner support (§4, optional optimization)}

     A dedicated per-node refresher thread can keep a replica fresh even
     when its node executes no operations, bounding read latency and
     preventing an idle node from holding the log back.  Spawn one thread
     per node (with a tid placed on that node) running
     [run_dedicated_combiner] — or call [refresh_local] at any cadence. *)

  (* Bring the calling thread's node up to [completed] if it lags. *)
  let refresh_local t =
    let ns = t.node_states.(R.my_node ()) in
    if Log.local_tail t.log ns.node < Log.completed t.log then
      refresh t ns ~combiner:false

  (* Loop refreshing the local replica until [stop] returns true. *)
  let run_dedicated_combiner t ~stop =
    while not (stop ()) do
      refresh_local t;
      R.yield ()
    done

  (* {2 Introspection} *)

  let config t = t.cfg
  let num_replicas t = Array.length t.node_states
  let log_tail t = Log.tail t.log
  let completed t = Log.completed t.log
  let local_tail t node = Log.local_tail t.log node

  let stats t =
    let acc = Stats.create () in
    Array.iter (fun ns -> Stats.add acc ns.stats) t.node_states;
    acc

  (** Quiescent-only introspection, for tests and memory accounting. *)
  module Unsafe = struct
    let replica t node = t.node_states.(node).replica

    (* Post-mortem completion of batches whose combiner (and every would-be
       stealer) died: quiescence means dead lock holders never resume, so
       the work happens without taking any lock.  Entries of every
       in-flight range are resolved first — afterwards no hole can remain
       below any batch start, since in liveness mode every committed range
       has a descriptor — then each batch is finished like
       [finish_batch], minus the lock and delivery. *)
    let finish_inflight t =
      Array.iter
        (fun ns ->
          if ns.inflight_state <> if_idle && ns.inflight_start >= 0 then
            fill_inflight t ns ns.inflight_start ns.inflight_n)
        t.node_states;
      Array.iter
        (fun ns ->
          if ns.inflight_state <> if_idle then
            if ns.inflight_start >= 0 then
              complete_batch t ns ~patience:0 ~deliver:false
            else retire ns)
        t.node_states

    (* Bring every replica up to [completed].  Must be called from a
       runtime thread while no other operations are in flight.  This
       first finishes any batch stranded by a dead combiner (liveness
       mode; legacy mode never has one in flight), so replicas end on a
       clean log-prefix state. *)
    let sync t =
      finish_inflight t;
      Array.iter
        (fun ns ->
          ignore (replay t ns ~upto:(Log.completed t.log) ~patience:(-1)))
        t.node_states

    (* Read the resident ops in [lo, hi), oldest first; [None] marks a
       poisoned (or concurrently recycled) entry. *)
    let read_ops t lo hi =
      List.init (hi - lo) (fun k ->
          match Log.get t.log (lo + k) with
          | Some e -> Some e.Log.op
          | None -> None)

    (* The still-resident completed suffix of the log, oldest first, with
       an explicit count of entries already recycled out from under it.
       [None] elements are poisoned entries (hardened mode; never
       observed with [liveness = None]). *)
    let log_entries ?upto t =
      let upto =
        match upto with Some u -> u | None -> Log.completed t.log
      in
      let wrapped = max 0 (upto - Log.size t.log) in
      (read_ops t wrapped upto, wrapped)

    (* Monotonic cursor over the completed prefix: the shared tap the AOF
       writer and the follower shipper advance instead of re-scanning from
       the head.  The lap check brackets the read — entries the appenders
       recycled mid-read would surface as [None], so the tail is re-read
       afterwards and the whole batch rejected if the cursor was overrun. *)
    let log_tap ?upto t ~from =
      let upto =
        match upto with Some u -> u | None -> Log.completed t.log
      in
      let oldest = max 0 (Log.tail t.log - Log.size t.log) in
      if from < oldest then Error oldest
      else begin
        let ops = read_ops t from upto in
        let oldest' = max 0 (Log.tail t.log - Log.size t.log) in
        if from < oldest' then Error oldest' else Ok ops
      end
  end
end
