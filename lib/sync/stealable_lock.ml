(** Generation-counting spin lock whose holder can be dispossessed.

    One shared word holds a generation counter: even = free, odd = held.
    Acquisition CASes an even value [g] to [g + 1] and the resulting odd
    value names this tenure.  A release is a CAS [g + 1 -> g + 2] — it
    fails iff the tenure was stolen meanwhile.  A steal CASes an observed
    odd value [h] to [h + 2]: still odd (the lock stays held, now by the
    stealer's fresh tenure) and every later CAS tagged with the victim's
    generation fails, so a stalled ex-holder that eventually resumes can
    detect the theft and cannot corrupt the new tenure.

    {!try_lock}, {!lock}, {!locked} and {!unlock_quiet} have
    {!Spinlock}'s shape, not its outcomes: after another tenure came and
    went between a [try_lock]'s read and its CAS, the generation CAS fails
    where the plain lock's [0 -> 1] CAS succeeds (ABA), so swapping this
    lock in changes contended simulations even when nothing steals. *)

module Make (R : Nr_runtime.Runtime_intf.S) = struct
  module Backoff = Backoff.Make (R)

  type t = int R.cell

  (* Generations start at 2 so that 0 can serve as the "not acquired"
     sentinel returned by [try_lock]. *)
  let create ?home () : t = R.cell ?home 2

  let try_lock t =
    let g = R.read t in
    if g land 1 = 0 && R.cas t g (g + 1) then g + 1 else 0

  let locked t = R.read t land 1 = 1

  (* Same deep backoff cap as [Spinlock.lock]: after a release the herd of
     waiters serializes CASes on the lock line and must thin out fast. *)
  let lock t =
    let g = try_lock t in
    if g <> 0 then g
    else begin
      let b = Backoff.create ~max_exp:10 () in
      let g = ref 0 in
      while
        g := try_lock t;
        !g = 0
      do
        Backoff.once b
      done;
      !g
    end

  (* Legacy release: one plain write, the same single Write charge as
     [Spinlock.unlock].  Only safe when no thread ever steals — the peek
     is free and the holder is then the sole writer of the word. *)
  let unlock_quiet t = R.write t (R.peek t + 1)

  let unlock t ~gen = R.cas t gen (gen + 1)

  let steal t ~gen =
    if R.cas t gen (gen + 2) then gen + 2 else 0

  let peek_gen t = R.peek t
  let read_gen t = R.read t
end
