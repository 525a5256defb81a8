(** Shared experiment parameters.  [paper] mirrors the paper's setup (4-node
    Intel topology, 1..112 threads, 200k-item structures); [quick] is a
    scaled-down preset for smoke runs. *)

type t = {
  topo : Nr_sim.Topology.t;
  threads : int list;  (** sweep points; node boundaries at 28/56/84 *)
  warmup_us : float;  (** virtual-time warmup per point *)
  measure_us : float;  (** virtual-time measurement window per point *)
  population : int;  (** initial items in each structure *)
  seed : int;
  latency : bool;
      (** record per-operation latency and add p50/p99 table columns *)
}

let paper =
  {
    topo = Nr_sim.Topology.intel;
    threads = [ 1; 7; 14; 28; 42; 56; 84; 112 ];
    warmup_us = 30.0;
    measure_us = 150.0;
    population = 200_000;
    seed = 0xA5A5;
    latency = false;
  }

let quick =
  {
    topo = Nr_sim.Topology.intel;
    threads = [ 1; 14; 28; 56; 112 ];
    warmup_us = 10.0;
    measure_us = 50.0;
    population = 20_000;
    seed = 0xA5A5;
    latency = false;
  }

(* Keeps a full-suite run within tens of minutes while preserving every
   shape: same thread sweep minus one point, 4x smaller structures, and a
   shorter (but still thousands-of-batches) measurement window. *)
let default =
  {
    topo = Nr_sim.Topology.intel;
    threads = [ 1; 14; 28; 56; 84; 112 ];
    warmup_us = 20.0;
    measure_us = 100.0;
    population = 50_000;
    seed = 0xA5A5;
    latency = false;
  }

let amd t =
  {
    t with
    topo = Nr_sim.Topology.amd;
    threads = List.filter (fun n -> n <= 48) [ 1; 6; 12; 18; 24; 36; 48 ];
  }

let max_threads t = List.fold_left max 1 t.threads
