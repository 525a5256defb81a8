(** A Chase–Lev work-stealing deque, SPMC flavour: one owner pushes (and
    may pop LIFO) at the bottom; any number of thieves steal FIFO from the
    top.  This is the run-queue shape the event loop feeds — the loop is
    the single producer, executor domains are the thieves — so the only
    contended operation is the thieves' CAS on [top].

    The buffer is a fixed-size ring of [Atomic.t] cells.  Chase–Lev's
    growable array is replaced by a capacity check: [push] returns [false]
    on a full deque and the caller decides (the scheduler spins briefly —
    a full run queue means the executors are saturated anyway).  Making
    every slot atomic costs an indirection per element but keeps the
    implementation free of data races under the OCaml memory model: all
    cross-domain communication goes through [Atomic], so the usual
    fenced-load subtleties of the C11 original do not arise.

    Safety of the unsynchronized-looking slot read in [steal]: the slot at
    position [t] can only be recycled after [top] has advanced past [t]
    (some consumer took it) {e and} the owner wrapped the ring around to
    [t + size].  Both paths move [top] beyond [t], so a thief that read a
    recycled value always fails its [compare_and_set top t (t+1)] and
    discards it.  [top] is monotonically increasing — no ABA. *)

type 'a t = {
  top : int Atomic.t;  (** next position to steal *)
  bottom : int Atomic.t;  (** next position to push *)
  buf : 'a option Atomic.t array;  (** position [i] lives in [i land mask] *)
  mask : int;
}

let create ?(size_exp = 12) () =
  if size_exp < 1 || size_exp > 20 then
    invalid_arg "Deque.create: size_exp out of range";
  {
    top = Atomic.make 0;
    bottom = Atomic.make 0;
    buf = Array.init (1 lsl size_exp) (fun _ -> Atomic.make None);
    mask = (1 lsl size_exp) - 1;
  }

let capacity t = t.mask + 1

(* Owner only.  [false] = full: [bottom - top] already spans the ring. *)
let push t x =
  let b = Atomic.get t.bottom in
  let tp = Atomic.get t.top in
  if b - tp > t.mask then false
  else begin
    Atomic.set t.buf.(b land t.mask) (Some x);
    (* publishing [bottom] after the slot write is what lets a thief that
       observed the new [bottom] rely on seeing the slot contents *)
    Atomic.set t.bottom (b + 1);
    true
  end

(* Owner only: LIFO end.  Competes with thieves only for the last item. *)
let pop t =
  let b = Atomic.get t.bottom - 1 in
  Atomic.set t.bottom b;
  let tp = Atomic.get t.top in
  if b < tp then begin
    (* empty; restore *)
    Atomic.set t.bottom tp;
    None
  end
  else if b > tp then begin
    let cell = t.buf.(b land t.mask) in
    let x = Atomic.get cell in
    Atomic.set cell None;
    x
  end
  else begin
    (* exactly one item: race thieves for it via [top] *)
    let won = Atomic.compare_and_set t.top tp (tp + 1) in
    Atomic.set t.bottom (tp + 1);
    if won then begin
      let cell = t.buf.(b land t.mask) in
      let x = Atomic.get cell in
      Atomic.set cell None;
      x
    end
    else None
  end

(* Any domain: FIFO end.  May fail spuriously under contention ([None]
   even though items remain) — callers treat [None] as "try elsewhere",
   which is exactly what a stealing scheduler does anyway. *)
let steal t =
  let tp = Atomic.get t.top in
  let b = Atomic.get t.bottom in
  if tp >= b then None
  else
    let cell = t.buf.(tp land t.mask) in
    match Atomic.get cell with
    | None -> None (* lost a race; the item is (being) taken by someone *)
    | Some _ as x ->
        if Atomic.compare_and_set t.top tp (tp + 1) then begin
          (* drop the slot's reference so a taken job does not stay live
             until the ring wraps; physical equality leaves a slot the
             owner has already refilled untouched *)
          ignore (Atomic.compare_and_set cell x None);
          x
        end
        else None

let length t = max 0 (Atomic.get t.bottom - Atomic.get t.top)
let is_empty t = length t = 0
