(** The NUMA-aware shared log (paper §5.1, §5.6, §5.7).

    A circular buffer of operation entries.  Combiners reserve a batch of
    entries with a single CAS on [tail], then fill them; consumers detect a
    filled entry by its generation stamp ([gen = index / size] — the
    "alternating bit" of §5.6 generalized to a lap counter, which makes
    stale entries from a previous lap unmistakable).  [completed] is the
    index below which every operation has been executed by the combiner that
    appended it; readers only wait for [completed], never [tail] (§5.3).

    Memory layout (§5.7): entries live in parallel {e flat} arrays — a plain
    [ops] slot array, a plain packed-[origins] int array, and a flat
    shared int-cell array ([R.icells]) of generation stamps.  The gen stamp doubles as the filled
    flag: a slot is published by writing its lap number, so the steady-state
    append path allocates nothing and each entry costs exactly one shared
    write to fill and one shared read to consume.  The op payload rides in
    the slot's plain array: on the simulator it travels "with" the gen line
    for free, mirroring the paper's single-cache-line entries; on real
    domains the gen cell is the [Atomic.t] whose write publishes the plain
    stores (release/acquire through the OCaml memory model).  Recycling is
    safe without clearing: an entry may only be reused once every node's
    [local_tail] passed it, and a consumer at index [i] pins its node's
    local tail at or below [i], so a slot's plain payload is never
    overwritten while some node may still read it.

    Recycling (§5.6): an appender may only reuse an entry once every node's
    [local_tail] has moved past it.  [log_min] caches the minimum local
    tail; it is recomputed lazily, only when an append would otherwise not
    fit, so the common path reads a single uncontended cell.  The recompute
    reads every per-node tail in one overlapped batch ([read_ints_into]) —
    independent lines, so the misses pipeline as on real hardware. *)

module Make (R : Nr_runtime.Runtime_intf.S) = struct
  (* Boxed view of one entry, for tests and introspection only; the hot
     paths use the flat accessors below and never build this record. *)
  type 'op entry = {
    op : 'op;
    gen : int;  (** lap number: entry at absolute index [i] has gen [i/size] *)
    origin_node : int;
    origin_slot : int;
  }

  type 'op t = {
    ops : 'op option array;
        (** plain payload slots; hold the very [Some] box the requester
            allocated, so filling is a pointer store *)
    origins : int array;  (** packed [node lsl origin_shift lor slot] *)
    gens : R.icells;  (** lap stamp per slot; [-1] = never filled *)
    tail : int R.cell;
    completed : int R.cell;
    log_min : int R.cell;
    local_tails : int R.cell array;
    tails_buf : int array;  (** scratch for the [log_min] recompute *)
    size : int;
  }

  let origin_shift = 16
  let origin_slot_mask = (1 lsl origin_shift) - 1

  let create ?(home = 0) ~size ~nodes () =
    if size < 2 then invalid_arg "Log.create: size must be >= 2";
    if nodes < 1 then invalid_arg "Log.create: nodes must be >= 1";
    {
      ops = Array.make size None;
      origins = Array.make size 0;
      gens = R.icells ~home ~len:size (-1);
      tail = R.cell ~home 0;
      completed = R.cell ~home 0;
      log_min = R.cell ~home 0;
      local_tails = Array.init nodes (fun node -> R.cell ~home:node 0);
      tails_buf = Array.make nodes 0;
      size;
    }

  let size t = t.size
  let tail t = R.read t.tail
  let completed t = R.read t.completed
  let local_tail t node = R.read t.local_tails.(node)
  let set_local_tail t node v = R.write t.local_tails.(node) v

  (* {2 Flat entry access}

     Protocol: check [is_filled] (or a [read_filled] scan) first — the gen
     read is the shared access and, on domains, the acquire that makes the
     plain payload reads below safe.  The accessors themselves touch only
     plain memory and are free in the simulator's cost model, like the rest
     of a cache line after its first word arrives. *)

  let is_filled t i = R.iget t.gens (i mod t.size) = i / t.size

  (* {2 Hole poisoning (hardened mode)}

     A reserved-but-unfilled entry whose writer died would stall every
     replayer forever.  Hardened replayers resolve such a hole by stamping
     it with the {e poison stamp} for its lap, [-(lap + 2)] — distinct
     from every lap number (>= 0), from "never filled" (-1), and from any
     other lap's poison.  Because fill and poison race through CASes on
     the same stamp cell, whichever lands first decides the entry for
     everyone: the stamp value itself records the outcome, so a late
     filler learns its op was poisoned (and its requester must repost) and
     a late poisoner learns the entry is live. *)

  let poison_of_lap lap = -(lap + 2)
  let poison_stamp t i = poison_of_lap (i / t.size)
  let is_poisoned t i = R.iget t.gens (i mod t.size) = poison_stamp t i

  (* Race fill vs. poison to resolve entry [i]; [stamp] is the caller's
     desired outcome.  Returns the winning stamp.  Terminates in at most
     two rounds: once resolved, a stamp never changes until recycling —
     and a stamp from a later lap (the entry was resolved {e and}
     recycled while the caller was stalled) is returned as-is rather than
     fought over, so a long-dispossessed zombie can never restamp a
     recycled entry. *)
  let rec resolve_stamp t i stamp =
    let j = i mod t.size in
    let lap = i / t.size in
    let p = poison_stamp t i in
    let cur = R.iget t.gens j in
    if cur = lap || cur = p then cur
    else if cur > lap || cur < p then cur (* recycled past our lap *)
    else if R.icas t.gens j cur stamp then stamp
    else resolve_stamp t i stamp

  (* (Re-)fill entry [i], racing concurrent fillers of the same op and
     hole-poisoners.  The payload is stored {e after} winning the stamp
     CAS, in the same atomic region, so exactly the winner publishes it:
     a zombie combiner whose scratch arrays were re-used for a newer
     batch retries with the wrong op, loses the already-resolved stamp
     check, and never touches the payload.  Returns [false] iff the entry
     ended up poisoned (the op must be reposted); an entry already
     recycled past this lap reads as filled — only a zombie whose batch a
     stealer fully finished can observe that, and it ignores the result. *)
  let rec fill_checked t i ~op ~origin_node ~origin_slot =
    let j = i mod t.size in
    let lap = i / t.size in
    let p = poison_stamp t i in
    let cur = R.iget t.gens j in
    if cur = lap then true
    else if cur = p then false
    else if cur > lap || cur < p then true (* recycled past our lap *)
    else if R.icas t.gens j cur lap then begin
      t.ops.(j) <- Some op;
      t.origins.(j) <- (origin_node lsl origin_shift) lor origin_slot;
      true
    end
    else fill_checked t i ~op ~origin_node ~origin_slot

  (* Poison the hole at [i]; returns [true] iff this call resolved it
      (for the poisoned counter — losing the race means no hole existed
      anymore). *)
  let poison t i =
    let p = poison_stamp t i in
    resolve_stamp t i p = p

  let op_at t i =
    match t.ops.(i mod t.size) with
    | Some op -> op
    | None -> invalid_arg "Log.op_at: unfilled entry"

  let origin_node_at t i = t.origins.(i mod t.size) lsr origin_shift
  let origin_slot_at t i = t.origins.(i mod t.size) land origin_slot_mask

  (* Boxed lookup for tests/introspection; allocates. *)
  let get t i =
    let j = i mod t.size in
    let lap = i / t.size in
    if R.iget t.gens j <> lap then None
    else
      match t.ops.(j) with
      | None -> None
      | Some op ->
          Some
            {
              op;
              gen = lap;
              origin_node = t.origins.(j) lsr origin_shift;
              origin_slot = t.origins.(j) land origin_slot_mask;
            }

  (* {2 Batched consumption}

     A [batch] is a caller-owned scratch buffer for gen scans, so a replay
     window costs one overlapped read batch and zero allocations (§5.7:
     replaying consumers stream through consecutive log lines, which the
     hardware prefetcher pipelines).  Not thread-safe: one [batch] per
     replayer. *)

  type batch = { mutable idx : int array; mutable stamps : int array }

  let batch () = { idx = [||]; stamps = [||] }

  let ensure_batch b n =
    if Array.length b.idx < n then begin
      let cap = max n (2 * Array.length b.idx) in
      b.idx <- Array.make cap 0;
      b.stamps <- Array.make cap (-1)
    end

  let rec filled_prefix stamps ~i ~size k n =
    if k < n then begin
      let s = Array.unsafe_get stamps k and lap = (i + k) / size in
      if s = lap || s = poison_of_lap lap then
        filled_prefix stamps ~i ~size (k + 1) n
      else k
    end
    else k

  (* Read the gen stamps of entries [i, i+n) in one overlapped batch and
     return how many are {e consecutively} resolved from [i]: filled, or
     poisoned (hardened mode; legacy mode never writes a poison stamp).
     Entries past the first hole are invisible to replay anyway
     (§5.1/§5.3), so a prefix count is all consumers need, and
     [batch_is_poisoned] tells the two outcomes apart per entry from the
     stamps already fetched, without another shared read. *)
  let read_filled t b i n =
    if n = 0 then 0
    else begin
      ensure_batch b n;
      for k = 0 to n - 1 do
        Array.unsafe_set b.idx k ((i + k) mod t.size)
      done;
      R.iread_into t.gens ~idx:b.idx ~n ~dst:b.stamps;
      filled_prefix b.stamps ~i ~size:t.size 0 n
    end

  (* Valid for offsets within the prefix a [read_filled] just returned:
     every poison stamp is <= -2, every lap stamp >= 0. *)
  let batch_is_poisoned b k = b.stamps.(k) < -1

  (* {2 Appending} *)

  (* Fill one reserved entry: plain payload stores, then the gen write
     publishes the slot. *)
  let fill t i ~op ~origin_node ~origin_slot =
    let j = i mod t.size in
    t.ops.(j) <- Some op;
    t.origins.(j) <- (origin_node lsl origin_shift) lor origin_slot;
    R.iset t.gens j (i / t.size)

  (* Fill a reserved range [start, start+n) in one pass from the combiner's
     scratch buffers.  [ops.(k)] holds the [Some] box taken from the
     requesting slot, so the payload store re-uses it — the append path
     allocates nothing. *)
  let fill_batch t ~start ~n ~ops ~slots ~origin_node =
    let packed_node = origin_node lsl origin_shift in
    for k = 0 to n - 1 do
      let i = start + k in
      let j = i mod t.size in
      t.ops.(j) <- Array.unsafe_get ops k;
      t.origins.(j) <- packed_node lor Array.unsafe_get slots k;
      R.iset t.gens j (i / t.size)
    done

  let recompute_log_min t =
    let n = Array.length t.local_tails in
    R.read_ints_into t.local_tails ~n ~dst:t.tails_buf;
    let m = ref max_int in
    for k = 0 to n - 1 do
      if Array.unsafe_get t.tails_buf k < !m then
        m := Array.unsafe_get t.tails_buf k
    done;
    (* [tails_buf] is shared by concurrent reservers; that is safe because
       local tails only grow, so any mix of genuinely-read values is a
       lower bound on every node's current tail. *)
    R.write t.log_min !m;
    !m

  (* Reserve [n] consecutive entries; [on_full] is invoked (outside any
     lock we hold) when the log has no room, giving NR a chance to advance
     this node's replica so its local tail stops holding the log back. *)
  let rec reserve t n ~on_full =
    let tl = R.read t.tail in
    if tl + n - R.read t.log_min > t.size then begin
      let m = recompute_log_min t in
      if tl + n - m > t.size then begin
        on_full ();
        R.yield ();
        reserve t n ~on_full
      end
      else attempt t n tl ~on_full
    end
    else attempt t n tl ~on_full

  and attempt t n tl ~on_full =
    if R.cas t.tail tl (tl + n) then tl else reserve t n ~on_full

  (* Hardened reserve: the tail CAS carries an ownership [guard], checked
     atomically with the reservation, so a combiner that was dispossessed
     while waiting can never commit entries it no longer owns — its
     stealer may already be recovering the batch.  Returns [-1] when the
     guard failed.  [on_full] may return [false] to abandon (bounded
     log-full wait). *)
  let rec reserve_guarded t n ~guard ~on_full =
    if not (guard ()) then -1
    else begin
      let tl = R.read t.tail in
      if tl + n - R.read t.log_min > t.size then begin
        let m = recompute_log_min t in
        if tl + n - m > t.size then
          if on_full () then begin
            R.yield ();
            reserve_guarded t n ~guard ~on_full
          end
          else -1
        else attempt_guarded t n tl ~guard ~on_full
      end
      else attempt_guarded t n tl ~guard ~on_full
    end

  and attempt_guarded t n tl ~guard ~on_full =
    (* [guard_ok] separates "guard refused" (abandon) from "lost the CAS
       race" (retry): [guarded_cas] reports both as [false]. *)
    let guard_ok = ref true in
    let g () =
      let v = guard () in
      if not v then guard_ok := false;
      v
    in
    if R.guarded_cas t.tail ~guard:g tl (tl + n) then tl
    else if not !guard_ok then -1
    else reserve_guarded t n ~guard ~on_full

  (* Reserve-and-fill a batch from caller-owned scratch ([ops]/[slots]
     prefixes of length [n]); the combiner's append path. *)
  let append_batch t ~ops ~slots ~n ~origin_node ~on_full =
    if n = 0 then invalid_arg "Log.append_batch: empty batch";
    if n > t.size then invalid_arg "Log.append_batch: batch larger than log";
    let start = reserve t n ~on_full in
    fill_batch t ~start ~n ~ops ~slots ~origin_node;
    start

  (* Single-op append for the no-flat-combining path (ablation #1). *)
  let append1 t op ~origin_node ~origin_slot ~on_full =
    let start = reserve t 1 ~on_full in
    fill t start ~op ~origin_node ~origin_slot;
    start

  (* [batch] pairs each operation with its originating combiner slot.
     Tuple-array convenience kept for tests; allocates. *)
  let append t batch ~origin_node ~on_full =
    let n = Array.length batch in
    if n = 0 then invalid_arg "Log.append: empty batch";
    if n > t.size then invalid_arg "Log.append: batch larger than the log";
    let start = reserve t n ~on_full in
    Array.iteri
      (fun k (op, slot) ->
        fill t (start + k) ~op ~origin_node ~origin_slot:slot)
      batch;
    start

  (* Advance [completed] to at least [target]: one CAS per batch in the
     common case — the re-read after a lost race usually shows another
     combiner already carried [completed] past [target]. *)
  let rec advance_completed t target =
    let c = R.read t.completed in
    if c >= target then ()
    else if R.cas t.completed c target then ()
    else advance_completed t target
end
