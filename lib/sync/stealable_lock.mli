(** Generation-counting spin lock whose holder can be dispossessed.

    A drop-in replacement for {!Spinlock} that additionally supports
    {e stealing}: a waiter that decides the holder has stalled can take the
    lock away, and the dispossessed holder's subsequent generation-tagged
    release (and any other generation-guarded writes it attempts) fail
    cleanly instead of corrupting the new tenure.

    The lock word holds a generation counter — even = free, odd = held;
    each successful acquisition or steal yields a fresh odd {e generation}
    naming that tenure.  Generation 0 never names a tenure and is the
    failure sentinel.

    {!try_lock}, {!lock}, {!locked} and {!unlock_quiet} issue the charges
    of their {!Spinlock} counterparts, but a seeded simulation matches
    one on the plain spin lock only while no other tenure comes and goes
    between a [try_lock]'s read and its CAS.  There {!Spinlock}'s
    [0 -> 1] CAS succeeds (ABA) and the generation CAS fails; contention
    makes this common. *)

module Make (R : Nr_runtime.Runtime_intf.S) : sig
  type t

  val create : ?home:int -> unit -> t
  (** A fresh, unlocked lock homed like {!Spinlock.Make.create}. *)

  val try_lock : t -> int
  (** One test-and-test-and-set attempt; never blocks.  Returns the
      acquired generation (odd, nonzero), or [0] on failure. *)

  val lock : t -> int
  (** Spin (with backoff, deep cap) until acquired; returns the
      generation. *)

  val locked : t -> bool
  (** Momentary snapshot, for heuristics only. *)

  val unlock_quiet : t -> unit
  (** Release without an ownership check — one plain write, the same
      charge as {!Spinlock.Make.unlock}.  Only the holder may call this,
      and only in a regime where no thread ever calls {!steal}. *)

  val unlock : t -> gen:int -> bool
  (** Generation-checked release: succeeds iff the caller's tenure [gen]
      is still current.  [false] means the lock was stolen — the caller
      must not touch protected state anymore. *)

  val steal : t -> gen:int -> int
  (** [steal t ~gen] dispossesses the holder whose tenure is [gen]:
      returns the stealer's fresh generation, or [0] if [gen] was no
      longer current (the holder finished or someone else stole first). *)

  val peek_gen : t -> int
  (** Advisory, uncharged read of the raw lock word; for use inside
      {!Nr_runtime.Runtime_intf.S.guarded_cas} guards. *)

  val read_gen : t -> int
  (** Charged read of the raw lock word (odd = held by that tenure);
      what a waiter tracks to detect a stuck tenure before stealing. *)
end
