(** Operation counters for one NR instance.

    Counters are plain mutable fields: in the simulator they are exact (the
    scheduler is single-threaded and they cost nothing in the model); on real
    domains they are racy but only used for reporting. *)

type t = {
  mutable updates : int;  (** update operations executed *)
  mutable reads : int;  (** read-only operations executed *)
  mutable combines : int;  (** batches flushed by combiners *)
  mutable combined_ops : int;  (** total operations across all batches *)
  mutable max_batch : int;  (** largest batch observed *)
  mutable reader_refreshes : int;
      (** times a reader refreshed the replica itself *)
  mutable log_full_stalls : int;  (** append attempts stalled on a full log *)
  mutable combiner_steals : int;
      (** combiner locks stolen from a stalled or dead leader *)
  mutable batches_recovered : int;
      (** in-flight batches finished by a thread other than their leader *)
  mutable reposts : int;
      (** operations re-submitted after their log entry was poisoned *)
  mutable poisoned : int;  (** log holes poisoned past a dead writer *)
  mutable remote_refreshes : int;
      (** laggard replicas refreshed remotely during a bounded
          log-full wait *)
  mutable opt_reads : int;
      (** reads served optimistically (no reader-slot acquire) *)
  mutable opt_retries : int;
      (** optimistic attempts invalidated by a concurrent stamp bump *)
  mutable opt_fallbacks : int;
      (** reads that gave up on the optimistic path (stale replica or
          retries exhausted) and took the rwlock slot path *)
}

let create () =
  {
    updates = 0;
    reads = 0;
    combines = 0;
    combined_ops = 0;
    max_batch = 0;
    reader_refreshes = 0;
    log_full_stalls = 0;
    combiner_steals = 0;
    batches_recovered = 0;
    reposts = 0;
    poisoned = 0;
    remote_refreshes = 0;
    opt_reads = 0;
    opt_retries = 0;
    opt_fallbacks = 0;
  }

let record_batch t n =
  t.combines <- t.combines + 1;
  t.combined_ops <- t.combined_ops + n;
  if n > t.max_batch then t.max_batch <- n

let avg_batch t =
  if t.combines = 0 then 0.0
  else float_of_int t.combined_ops /. float_of_int t.combines

(* {2 Derived summary}

   [avg_batch] of an accumulated record is already throughput-weighted:
   summing [combined_ops] and [combines] before dividing weighs each
   node's average by how many batches it actually flushed, rather than
   averaging per-node averages. *)

let total_ops t = t.updates + t.reads

let update_ratio t =
  if total_ops t = 0 then 0.0
  else float_of_int t.updates /. float_of_int (total_ops t)

let ops_per_combine t =
  if t.combines = 0 then 0.0
  else float_of_int (total_ops t) /. float_of_int t.combines

let add acc x =
  acc.updates <- acc.updates + x.updates;
  acc.reads <- acc.reads + x.reads;
  acc.combines <- acc.combines + x.combines;
  acc.combined_ops <- acc.combined_ops + x.combined_ops;
  acc.max_batch <- max acc.max_batch x.max_batch;
  acc.reader_refreshes <- acc.reader_refreshes + x.reader_refreshes;
  acc.log_full_stalls <- acc.log_full_stalls + x.log_full_stalls;
  acc.combiner_steals <- acc.combiner_steals + x.combiner_steals;
  acc.batches_recovered <- acc.batches_recovered + x.batches_recovered;
  acc.reposts <- acc.reposts + x.reposts;
  acc.poisoned <- acc.poisoned + x.poisoned;
  acc.remote_refreshes <- acc.remote_refreshes + x.remote_refreshes;
  acc.opt_reads <- acc.opt_reads + x.opt_reads;
  acc.opt_retries <- acc.opt_retries + x.opt_retries;
  acc.opt_fallbacks <- acc.opt_fallbacks + x.opt_fallbacks

let pp ppf t =
  Format.fprintf ppf
    "ops=%d (%.0f%% updates) combines=%d avg_batch=%.2f max_batch=%d \
     ops/combine=%.2f reader_refreshes=%d log_full_stalls=%d"
    (total_ops t)
    (100.0 *. update_ratio t)
    t.combines (avg_batch t) t.max_batch (ops_per_combine t)
    t.reader_refreshes t.log_full_stalls;
  (* liveness counters only appear when the hardened protocol fired *)
  if
    t.combiner_steals + t.batches_recovered + t.reposts + t.poisoned
    + t.remote_refreshes > 0
  then
    Format.fprintf ppf
      " steals=%d recovered=%d reposts=%d poisoned=%d remote_refreshes=%d"
      t.combiner_steals t.batches_recovered t.reposts t.poisoned
      t.remote_refreshes;
  (* optimistic-read counters only appear when the path is armed *)
  if t.opt_reads + t.opt_retries + t.opt_fallbacks > 0 then
    Format.fprintf ppf " opt_reads=%d opt_retries=%d opt_fallbacks=%d"
      t.opt_reads t.opt_retries t.opt_fallbacks

(* {2 Run-scoped collection}

   [Node_replication.create] registers a closure returning its accumulated
   stats; the experiment driver brackets a run with [start_collection] /
   [collect] to surface combiner behaviour without threading the NR
   instance through every experiment's setup signature.  Registration is a
   no-op outside a collection window, so instances built by tests or
   servers leak nothing. *)

let collectors : (unit -> t) list ref = ref []
let collecting = ref false

let start_collection () =
  collectors := [];
  collecting := true

let register_collector f = if !collecting then collectors := f :: !collectors

let collect () =
  collecting := false;
  match !collectors with
  | [] -> None
  | fs ->
      let acc = create () in
      List.iter (fun f -> add acc (f ())) fs;
      collectors := [];
      Some acc

(* Adapt the counters into the unified metrics registry; closures read the
   live record, so register once and dump whenever. *)
let register_metrics reg ?(prefix = "nr") t =
  let c name read = Nr_obs.Metrics.counter reg ~name:(prefix ^ "_" ^ name) read in
  let g name read = Nr_obs.Metrics.gauge reg ~name:(prefix ^ "_" ^ name) read in
  c "updates" (fun () -> t.updates);
  c "reads" (fun () -> t.reads);
  c "combines" (fun () -> t.combines);
  c "combined_ops" (fun () -> t.combined_ops);
  c "max_batch" (fun () -> t.max_batch);
  c "reader_refreshes" (fun () -> t.reader_refreshes);
  c "log_full_stalls" (fun () -> t.log_full_stalls);
  c "combiner_steals" (fun () -> t.combiner_steals);
  c "batches_recovered" (fun () -> t.batches_recovered);
  c "reposts" (fun () -> t.reposts);
  c "poisoned" (fun () -> t.poisoned);
  c "remote_refreshes" (fun () -> t.remote_refreshes);
  c "opt_reads" (fun () -> t.opt_reads);
  c "opt_retries" (fun () -> t.opt_retries);
  c "opt_fallbacks" (fun () -> t.opt_fallbacks);
  g "avg_batch" (fun () -> avg_batch t);
  g "update_ratio" (fun () -> update_ratio t)
