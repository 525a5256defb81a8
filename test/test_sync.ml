(* Synchronization primitive tests, run on the simulator where thousands of
   interleavings are explored deterministically. *)

module S = Nr_sim.Sched
module T = Nr_sim.Topology

let with_sim topo threads body =
  let sched = S.create topo in
  let rt = Nr_runtime.Runtime_sim.make sched in
  let module R = (val rt) in
  for tid = 0 to threads - 1 do
    S.spawn sched ~tid (body rt ~tid)
  done;
  S.run sched

let test_spinlock_mutual_exclusion () =
  let sched = S.create T.intel in
  let module R = (val Nr_runtime.Runtime_sim.make sched) in
  let module Spin = Nr_sync.Spinlock.Make (R) in
  let lock = Spin.create () in
  (* a non-atomic counter: only mutual exclusion keeps it consistent *)
  let unprotected = ref 0 in
  let iters = 200 in
  let threads = 16 in
  for tid = 0 to threads - 1 do
    S.spawn sched ~tid (fun () ->
        for _ = 1 to iters do
          Spin.lock lock;
          let v = !unprotected in
          R.yield ();
          (* adversarial: dwell inside the critical section *)
          unprotected := v + 1;
          Spin.unlock lock
        done)
  done;
  S.run sched;
  Alcotest.(check int) "no lost updates" (threads * iters) !unprotected

let test_spinlock_trylock () =
  let sched = S.create T.tiny in
  let module R = (val Nr_runtime.Runtime_sim.make sched) in
  let module Spin = Nr_sync.Spinlock.Make (R) in
  let lock = Spin.create () in
  S.spawn sched ~tid:0 (fun () ->
      Alcotest.(check bool) "acquire" true (Spin.try_lock lock);
      Alcotest.(check bool) "re-acquire fails" false (Spin.try_lock lock);
      Alcotest.(check bool) "locked" true (Spin.locked lock);
      Spin.unlock lock;
      Alcotest.(check bool) "acquire after unlock" true (Spin.try_lock lock);
      Spin.unlock lock);
  S.run sched

let test_stealable_mutual_exclusion () =
  let sched = S.create T.intel in
  let module R = (val Nr_runtime.Runtime_sim.make sched) in
  let module L = Nr_sync.Stealable_lock.Make (R) in
  let lock = L.create () in
  let unprotected = ref 0 in
  let lost_release = ref false in
  let iters = 200 in
  let threads = 16 in
  for tid = 0 to threads - 1 do
    S.spawn sched ~tid (fun () ->
        for _ = 1 to iters do
          let gen = L.lock lock in
          let v = !unprotected in
          R.yield ();
          unprotected := v + 1;
          (* nobody steals here, so every tenure's release must succeed *)
          if not (L.unlock lock ~gen) then lost_release := true
        done)
  done;
  S.run sched;
  Alcotest.(check int) "no lost updates" (threads * iters) !unprotected;
  Alcotest.(check bool) "every release succeeds" false !lost_release

let test_stealable_trylock () =
  let sched = S.create T.tiny in
  let module R = (val Nr_runtime.Runtime_sim.make sched) in
  let module L = Nr_sync.Stealable_lock.Make (R) in
  let lock = L.create () in
  S.spawn sched ~tid:0 (fun () ->
      let g = L.try_lock lock in
      Alcotest.(check bool) "acquire yields an odd generation" true
        (g land 1 = 1);
      Alcotest.(check int) "try_lock while held" 0 (L.try_lock lock);
      Alcotest.(check bool) "locked" true (L.locked lock);
      L.unlock_quiet lock;
      Alcotest.(check bool) "free after unlock_quiet" false (L.locked lock);
      let g' = L.try_lock lock in
      Alcotest.(check bool) "fresh tenure after release" true
        (g' <> 0 && g' <> g);
      Alcotest.(check bool) "release" true (L.unlock lock ~gen:g'));
  S.run sched

let test_stealable_steal () =
  let sched = S.create T.tiny in
  let module R = (val Nr_runtime.Runtime_sim.make sched) in
  let module L = Nr_sync.Stealable_lock.Make (R) in
  let lock = L.create () in
  S.spawn sched ~tid:0 (fun () ->
      let victim = L.lock lock in
      let thief = L.steal lock ~gen:victim in
      Alcotest.(check bool) "steal succeeds on the current tenure" true
        (thief <> 0 && thief <> victim && thief land 1 = 1);
      Alcotest.(check bool) "still held by the stealer" true (L.locked lock);
      Alcotest.(check int) "stale steal fails" 0 (L.steal lock ~gen:victim);
      Alcotest.(check bool) "victim's release fails" false
        (L.unlock lock ~gen:victim);
      Alcotest.(check bool) "lock still held after the failed release" true
        (L.locked lock);
      Alcotest.(check bool) "stealer's release succeeds" true
        (L.unlock lock ~gen:thief);
      Alcotest.(check bool) "free" false (L.locked lock));
  S.run sched

(* Generic readers-writer lock exercise: readers must never observe a
   torn (odd) value; the writer writes in two steps. *)
let rw_exercise ~make_ops =
  let sched = S.create T.intel in
  let rt = Nr_runtime.Runtime_sim.make sched in
  let module R = (val rt) in
  let value = ref 0 in
  let torn = ref false in
  let read_lock, read_unlock, write_lock, write_unlock = make_ops rt in
  let threads = 12 in
  for tid = 0 to threads - 1 do
    S.spawn sched ~tid (fun () ->
        for _ = 1 to 100 do
          if tid < 4 then begin
            (* writer: makes the value momentarily odd *)
            write_lock ();
            incr value;
            R.yield ();
            incr value;
            write_unlock ()
          end
          else begin
            read_lock tid;
            if !value land 1 = 1 then torn := true;
            read_unlock tid
          end
        done)
  done;
  S.run sched;
  Alcotest.(check bool) "no torn reads" false !torn;
  Alcotest.(check int) "writer updates kept" (4 * 100 * 2) !value

let test_rwlock_dist () =
  rw_exercise ~make_ops:(fun rt ->
      let module R = (val rt) in
      let module Rw = Nr_sync.Rwlock_dist.Make (R) in
      let l = Rw.create ~readers:28 () in
      ( (fun tid -> Rw.read_lock l (tid mod 28)),
        (fun tid -> Rw.read_unlock l (tid mod 28)),
        (fun () -> Rw.write_lock l),
        fun () -> Rw.write_unlock l ))

let test_rwlock_simple () =
  rw_exercise ~make_ops:(fun rt ->
      let module R = (val rt) in
      let module Rw = Nr_sync.Rwlock_simple.Make (R) in
      let l = Rw.create () in
      ( (fun _ -> Rw.read_lock l),
        (fun _ -> Rw.read_unlock l),
        (fun () -> Rw.write_lock l),
        fun () -> Rw.write_unlock l ))

let test_rwlock_dist_parallel_readers () =
  (* readers on distinct slots must be able to hold the lock at once *)
  let sched = S.create T.tiny in
  let module R = (val Nr_runtime.Runtime_sim.make sched) in
  let module Rw = Nr_sync.Rwlock_dist.Make (R) in
  let l = Rw.create ~readers:4 () in
  let inside = ref 0 in
  let max_inside = ref 0 in
  for tid = 0 to 3 do
    S.spawn sched ~tid (fun () ->
        for _ = 1 to 50 do
          Rw.read_lock l tid;
          incr inside;
          if !inside > !max_inside then max_inside := !inside;
          R.yield ();
          decr inside;
          Rw.read_unlock l tid
        done)
  done;
  S.run sched;
  Alcotest.(check bool) "readers overlapped" true (!max_inside > 1)

let test_backoff_grows () =
  let sched = S.create T.tiny in
  let module R = (val Nr_runtime.Runtime_sim.make sched) in
  let module B = Nr_sync.Backoff.Make (R) in
  let t1 = ref 0 and t2 = ref 0 in
  S.spawn sched ~tid:0 (fun () ->
      let b = B.create ~max_exp:4 () in
      let t0 = S.now () in
      B.once b;
      t1 := S.now () - t0;
      let t0 = S.now () in
      B.once b;
      B.once b;
      B.once b;
      t2 := S.now () - t0);
  S.run sched;
  Alcotest.(check bool) "backoff grows" true (!t2 > !t1)

let _ = with_sim

let suite =
  [
    Alcotest.test_case "spinlock mutual exclusion" `Quick
      test_spinlock_mutual_exclusion;
    Alcotest.test_case "spinlock try_lock" `Quick test_spinlock_trylock;
    Alcotest.test_case "stealable lock mutual exclusion" `Quick
      test_stealable_mutual_exclusion;
    Alcotest.test_case "stealable lock try_lock" `Quick test_stealable_trylock;
    Alcotest.test_case "stealable lock steal dispossesses the holder" `Quick
      test_stealable_steal;
    Alcotest.test_case "distributed rwlock" `Quick test_rwlock_dist;
    Alcotest.test_case "simple rwlock" `Quick test_rwlock_simple;
    Alcotest.test_case "dist rwlock parallel readers" `Quick
      test_rwlock_dist_parallel_readers;
    Alcotest.test_case "backoff grows" `Quick test_backoff_grows;
  ]
