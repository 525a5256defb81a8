(** Distributed readers-writer lock (paper §5.5, after Vyukov's distributed
    mutex with the paper's writer-side improvement).

    Each reader slot has its own flag cell (own cache line), so concurrent
    readers never contend with each other.  A writer raises one writer flag
    and then merely {e waits} for every reader flag to drop, without
    acquiring them; both sides pay a single atomic write on distinct lines.
    Readers may starve under a stream of writers, which does not arise in NR
    because only the combiner writes.

    One optional knob, off by default and byte-identical when off:
    [patience] arms truncated exponential backoff in the reader spin loops
    (legacy readers re-read the writer flag every yield). *)

module Make (R : Nr_runtime.Runtime_intf.S) = struct
  module Backoff = Backoff.Make (R)

  type t = {
    writer : int R.cell;
    readers : int R.cell array;
    scan : int array;
        (** writer-side scratch for the flag scan; only ever touched while
            holding the writer flag, so one buffer per lock suffices *)
    patience : int option;
        (** when present, reader spin loops back off exponentially with
            this max exponent instead of re-reading every yield *)
  }

  let create ?home ?patience ~readers () =
    if readers <= 0 then invalid_arg "Rwlock_dist.create: readers must be > 0";
    (match patience with
    | Some p when p < 1 ->
        invalid_arg "Rwlock_dist.create: patience must be >= 1"
    | _ -> ());
    {
      writer = R.cell ?home 0;
      readers = Array.init readers (fun _ -> R.cell ?home 0);
      scan = Array.make readers 0;
      patience;
    }

  let slots t = Array.length t.readers

  let read_lock t slot =
    let flag = t.readers.(slot) in
    match t.patience with
    | None ->
        let rec loop () =
          while R.read t.writer <> 0 do
            R.yield ()
          done;
          R.write flag 1;
          if R.read t.writer <> 0 then begin
            (* a writer slipped in: back off and retry *)
            R.write flag 0;
            R.yield ();
            loop ()
          end
        in
        loop ()
    | Some max_exp ->
        let b = Backoff.create ~max_exp () in
        let rec loop () =
          while R.read t.writer <> 0 do
            Backoff.once b
          done;
          R.write flag 1;
          if R.read t.writer <> 0 then begin
            R.write flag 0;
            Backoff.once b;
            loop ()
          end
        in
        loop ()

  let read_unlock t slot = R.write t.readers.(slot) 0

  (* Wait out the stragglers the batch scan saw as active. *)
  let rec drain t i n =
    if i < n then begin
      if Array.unsafe_get t.scan i <> 0 then begin
        let flag = t.readers.(i) in
        while R.read flag <> 0 do
          R.yield ()
        done
      end;
      drain t (i + 1) n
    end

  let write_lock t =
    while not (R.read t.writer = 0 && R.cas t.writer 0 1) do
      R.yield ()
    done;
    (* scan all reader flags at once (independent lines overlap, zero
       allocation), then wait out the stragglers individually *)
    let n = Array.length t.readers in
    R.read_ints_into t.readers ~n ~dst:t.scan;
    drain t 0 n

  let write_unlock t = R.write t.writer 0
end
