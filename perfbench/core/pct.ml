(** Latency percentiles by the nearest-rank rule.

    The tail percentile reported is the highest of {!ladder} that leaves
    at least {!min_beyond} samples above it, so a tail figure never rests
    on a handful of outliers; the sample count is reported beside it. *)

let ladder = [ 99; 95; 90; 50 ]
let min_beyond = 10

(* 1-based nearest rank of percentile [q] among [n] samples *)
let rank ~n q = max 1 ((q * n + 99) / 100)

(** [tail n]: the highest percentile of {!ladder} with at least
    {!min_beyond} of [n] samples beyond it, if any. *)
let tail n = List.find_opt (fun q -> n - rank ~n q >= min_beyond) ladder

(** Nearest-rank percentile [q] of a sorted, non-empty array. *)
let of_sorted a q =
  let n = Array.length a in
  if n = 0 then invalid_arg "Pct.of_sorted: empty sample";
  a.(min n (rank ~n q) - 1)
