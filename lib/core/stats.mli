(** Operation counters for one NR instance.

    {b Racy-counter caveat}: counters are plain mutable fields.  In the
    simulator they are exact — the scheduler is single-OS-thread and
    increments cost no virtual time.  On real domains concurrent
    increments can race and undercount; they are kept plain anyway because
    they exist only for reporting, and atomics on these paths would
    perturb the very behaviour being measured. *)

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

val create : unit -> t

val record_batch : t -> int -> unit
(** Count one flushed batch of the given size. *)

val add : t -> t -> unit
(** [add acc x] accumulates [x] into [acc].  Derived quantities of the
    result are throughput-weighted: {!avg_batch} divides summed
    [combined_ops] by summed [combines], weighing each node by the batches
    it actually flushed. *)

(** {2 Derived summary} *)

val avg_batch : t -> float
val total_ops : t -> int

val update_ratio : t -> float
(** updates / total ops, 0 when empty *)

val ops_per_combine : t -> float

val pp : Format.formatter -> t -> unit

(** {2 Run-scoped collection}

    {!Node_replication.Make.create} registers its stats here; an
    experiment driver brackets a run with {!start_collection} and
    {!collect} to obtain the accumulated counters without threading the
    NR instance through setup signatures.  Registration outside a
    collection window is a no-op.  Not synchronized: bracket runs from
    the orchestrating thread only. *)

val start_collection : unit -> unit
val register_collector : (unit -> t) -> unit

val collect : unit -> t option
(** Ends the window; [None] when no NR instance registered (baselines). *)

val register_metrics : Nr_obs.Metrics.t -> ?prefix:string -> t -> unit
(** Register every counter (prefixed, default ["nr"]) plus derived gauges
    in a metrics registry; values are read live at dump time. *)
