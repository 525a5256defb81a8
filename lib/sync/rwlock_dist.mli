(** Distributed readers-writer lock (paper §5.5, after Vyukov's
    distributed mutex with the paper's writer-side improvement).

    Each reader slot has its own flag cell on its own cache line, so
    concurrent readers never write a shared line.  A writer raises one
    writer flag and then merely waits for every reader flag to drop,
    without acquiring them; both sides pay a single atomic write on
    distinct lines.  Readers may starve under a stream of writers — which
    does not arise inside Node Replication, where only the combiner
    writes. *)

module Make (R : Nr_runtime.Runtime_intf.S) : sig
  type t

  val create :
    ?home:int -> ?patience:int -> readers:int -> unit -> t
  (** A lock with [readers] reader slots (typically one per thread that
      may read).  [home] is the backing node for the writer flag and slot
      array.

      [patience], when given, arms truncated exponential backoff (max
      exponent [patience]) in the reader spin loops — both the
      wait-for-no-writer loop and the retreat-and-retry loop.  It is the
      same knob {!Nr_core.Config.t.read_patience} feeds to the
      optimistic-read retry bound, so one number tunes how hard the whole
      read path pushes before backing off.  Absent = readers re-read the
      writer flag every yield, byte-identical charge sequences.

      @raise Invalid_argument if [readers <= 0] or [patience < 1]. *)

  val slots : t -> int
  (** Number of reader slots the lock was created with. *)

  val read_lock : t -> int -> unit
  (** [read_lock t slot] acquires slot [slot] for reading: wait until no
      writer, raise the slot's flag, and re-check (a writer that slipped
      in between forces a retreat-and-retry).  Each slot must be used by
      at most one thread at a time. *)

  val read_unlock : t -> int -> unit
  (** Drop the slot's flag. *)

  val write_lock : t -> unit
  (** Acquire the single writer flag, then wait for all raised reader
      flags to drop.  The initial scan reads all flags at one
      linearization point ([R.read_all]) so independent misses overlap. *)

  val write_unlock : t -> unit
  (** Drop the writer flag. *)
end
