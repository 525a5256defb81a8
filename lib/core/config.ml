(** NR tuning parameters and the ablation toggles of paper §8.5 (fig. 13).
    The defaults enable every technique, i.e. full NR. *)

(** Patience budgets for the hardened (liveness) mode.  Each is a number
    of backoff rounds a waiter tolerates before concluding the thread it
    is waiting on has stalled or died and taking recovery action. *)
type liveness = {
  slot_patience : int;
      (** rounds a waiter spins on its response slot before trying to
          steal the combiner lock and finish the batch itself *)
  hole_patience : int;
      (** rounds a replayer waits on an unfilled log entry before
          poisoning the hole so the log can advance past a dead writer *)
  full_patience : int;
      (** rounds a combiner waits on a full log before refreshing the
          laggard replica remotely instead of spinning *)
}

(** Seeded correctness bugs for checker validation: each mutation disables
    one protocol step that linearizability depends on, so a checker that
    cannot flag the mutated build is not looking hard enough. *)
type mutation =
  | Stale_reads
      (** skip the [completedTail] freshness wait on the read path: a
          reader may consult a replica that has not yet applied updates
          that completed before the read was issued *)
  | Router_bypass
      (** sharded NR only: route single-key read-only operations to the
          wrong shard, so a read consults a replica that never saw the
          key's updates.  Plain NR ignores it (a single instance has no
          router to bypass). *)
  | Skip_read_validate
      (** optimistic readers skip the post-read stamp check: a read whose
          unlocked replica access raced a combiner's replay can return a
          value computed on the stale pre-replay replica while the
          deferred freshness check (which runs {e after} the access)
          passes against the freshly advanced local tail.  Requires
          [optimistic_reads]. *)

type t = {
  log_size : int;  (** shared log capacity in entries (paper uses 1M) *)
  min_batch : int;
      (** a combiner with fewer outstanding operations than this refreshes
          the local replica from the log and rescans before appending *)
  min_batch_retries : int;  (** how many times to rescan for [min_batch] *)
  replay_window : int;
      (** log entries a replayer fetches per overlapped batch (streaming
          prefetch of consecutive log lines) *)
  flat_combining : bool;
      (** #1: batch a node's operations through a combiner.  When disabled,
          every thread appends its own operation to the log and applies it
          under the writer lock. *)
  read_optimization : bool;
      (** #2: readers wait only for [completedTail].  When disabled they
          wait for [logTail]. *)
  separate_replica_lock : bool;
      (** #3: protect the replica with a readers-writer lock distinct from
          the combiner lock, so readers run while the combiner fills the
          log.  When disabled the combiner lock protects the replica. *)
  parallel_replica_update : bool;
      (** #4: combiners on different nodes update their replicas in
          parallel.  When disabled a combiner waits for [completedTail] to
          reach its batch before taking the writer lock, serializing
          replica updates. *)
  distributed_rwlock : bool;
      (** #5: use the distributed readers-writer lock of §5.5.  When
          disabled, use a centralized reader-count lock. *)
  shards : int;
      (** number of independent NR instances the key space is
          hash-partitioned across ({!Nr_shard}); 1 = plain NR, a single
          log.  Plain [Node_replication] ignores the field — it describes
          the sharded wrapper built around it. *)
  router_seed : int;
      (** seed of the sharded router's key hash: determines the
          key-to-shard mapping, deterministically. *)
  optimistic_reads : bool;
      (** seqlock read path: readers sample a per-replica version stamp,
          run the operation on the replica {e without} taking a reader
          slot, then validate freshness + stamp equality after the fact,
          falling back to the rwlock slot path after bounded retries.
          Requires [separate_replica_lock] (the stamp brackets the writer
          lock).  Off = the slot path only, charge sequences
          byte-identical. *)
  read_patience : int option;
      (** [Some cap] arms truncated exponential backoff (max exponent
          [cap]) in the distributed rwlock's reader spin loops and bounds
          the optimistic-read retry count by [cap]; [None] keeps the
          legacy exact-spin loops (byte-identical) and the default
          optimistic retry bound.  Shared so one knob tunes both ends of
          the read path's patience. *)
  liveness : liveness option;
      (** [Some _] arms the hardened combiner protocol (stealable combiner
          lock, slot-timeout handoff, hole poisoning, bounded log-full
          wait) — meant for runs under fault injection.  [None] keeps the
          legacy protocol on charge sequences byte-identical to a build
          without the feature. *)
  mutation : mutation option;
      (** [Some _] plants the named bug — exists only so the checker can
          prove it flags a broken build; [None] (the default) is correct
          NR. *)
}

let default =
  {
    log_size = 1 lsl 16;
    min_batch = 1;
    min_batch_retries = 4;
    replay_window = 8;
    flat_combining = true;
    read_optimization = true;
    separate_replica_lock = true;
    parallel_replica_update = true;
    distributed_rwlock = true;
    shards = 1;
    router_seed = 0x5EED;
    optimistic_reads = false;
    read_patience = None;
    liveness = None;
    mutation = None;
  }

let robust =
  {
    default with
    liveness =
      Some { slot_patience = 64; hole_patience = 64; full_patience = 32 };
  }

let validate t =
  if t.log_size < 2 then invalid_arg "Config: log_size must be >= 2";
  if t.min_batch < 1 then invalid_arg "Config: min_batch must be >= 1";
  if t.min_batch_retries < 0 then
    invalid_arg "Config: min_batch_retries must be >= 0";
  if t.replay_window < 1 then
    invalid_arg "Config: replay_window must be >= 1";
  if t.shards < 1 then invalid_arg "Config: shards must be >= 1";
  (match t.read_patience with
  | Some p when p < 1 -> invalid_arg "Config: read_patience must be >= 1"
  | _ -> ());
  (* The stamp brackets the replica writer lock; with the combiner lock
     doubling as the replica lock there is no writer section to bracket
     (a combiner mutates the replica without ever calling acquire_write),
     so an "optimistic" read could validate against an even stamp while a
     combine is mid-batch. *)
  if t.optimistic_reads && not t.separate_replica_lock then
    invalid_arg "Config: optimistic_reads requires separate_replica_lock";
  if t.mutation = Some Skip_read_validate && not t.optimistic_reads then
    invalid_arg "Config: Skip_read_validate requires optimistic_reads";
  match t.liveness with
  | None -> ()
  | Some l ->
      (* The hardened protocol is written for the full-NR configuration:
         with flat combining off there is no combiner to hand off, and
         with the combiner lock doubling as the replica lock a steal would
         race the replica update itself. *)
      if not (t.flat_combining && t.separate_replica_lock) then
        invalid_arg
          "Config: liveness requires flat_combining and \
           separate_replica_lock";
      if l.slot_patience < 1 || l.hole_patience < 1 || l.full_patience < 1
      then invalid_arg "Config: liveness patience values must be >= 1"

let pp ppf t =
  Format.fprintf ppf
    "log_size=%d min_batch=%d fc=%b read_opt=%b sep_lock=%b par_update=%b \
     dist_rw=%b%t%t%a"
    t.log_size t.min_batch t.flat_combining t.read_optimization
    t.separate_replica_lock t.parallel_replica_update t.distributed_rwlock
    (fun ppf ->
      if t.shards <> 1 then
        Format.fprintf ppf " shards=%d router_seed=%#x" t.shards t.router_seed)
    (fun ppf ->
      if t.optimistic_reads then Format.fprintf ppf " opt_reads";
      match t.read_patience with
      | Some p -> Format.fprintf ppf " patience=%d" p
      | None -> ())
    (fun ppf -> function
      | None -> ()
      | Some l ->
          Format.fprintf ppf " liveness=%d/%d/%d" l.slot_patience
            l.hole_patience l.full_patience)
    t.liveness;
  match t.mutation with
  | None -> ()
  | Some Stale_reads -> Format.fprintf ppf " MUTATION=stale_reads"
  | Some Router_bypass -> Format.fprintf ppf " MUTATION=router_bypass"
  | Some Skip_read_validate ->
      Format.fprintf ppf " MUTATION=skip_read_validate"
