(** Registry tying every table and figure of the paper's evaluation to the
    code that regenerates it. *)

type group = {
  id : string;
  description : string;
  run : Params.t -> unit;  (** compute and print *)
}

let print_figures figs = List.iter Table.print figs

let groups =
  [
    {
      id = "fig5";
      description = "skip list priority queue (5 panels)";
      run = (fun p -> print_figures (Exp_pq.fig5 p));
    };
    {
      id = "fig6";
      description = "pairing heap priority queue";
      run = (fun p -> print_figures (Exp_pq.fig6 p));
    };
    {
      id = "fig7";
      description = "skip list dictionary, uniform and zipf keys";
      run = (fun p -> print_figures (Exp_dict.fig7 p));
    };
    {
      id = "fig8";
      description = "stack, including the NUMA-aware baseline";
      run = (fun p -> print_figures (Exp_stack.fig8 p));
    };
    {
      id = "fig9";
      description = "synthetic structure scalability";
      run = (fun p -> print_figures (Exp_synthetic.fig9 p));
    };
    {
      id = "fig10";
      description = "NR speedup vs lines accessed per operation";
      run = (fun p -> print_figures (Exp_synthetic.fig10 p));
    };
    {
      id = "fig-size";
      description = "structure size sweep (paper sec. 8.2.3)";
      run = (fun p -> print_figures (Exp_synthetic.fig_size p));
    };
    {
      id = "fig11";
      description = "KV store sorted sets (Intel topology)";
      run = (fun p -> print_figures (Exp_kv.fig11 p));
    };
    {
      id = "fig12";
      description = "KV store sorted sets (AMD topology)";
      run = (fun p -> print_figures (Exp_kv.fig12 p));
    };
    {
      id = "fig14";
      description = "ablation: disabling NR's techniques";
      run = (fun p -> print_figures (Exp_ablation.fig14 p));
    };
    {
      id = "memory";
      description = "memory tables (figs. 5f, 6c, 7e)";
      run = Memsize.print;
    };
    {
      id = "tuning";
      description = "ablations of this implementation's own knobs";
      run = (fun p -> print_figures (Exp_tuning.tuning p));
    };
    {
      id = "faults";
      description = "fault injection: stall length vs throughput/p99";
      run = (fun p -> print_figures (Exp_faults.figures p));
    };
    {
      id = "opt-reads";
      description = "optimistic seqlock reads: pure-read ceiling";
      run = (fun p -> print_figures (Exp_opt_reads.figures p));
    };
    {
      id = "shard";
      description = "sharded NR: shard count x threads x update ratio";
      run = (fun p -> print_figures (Exp_shard.figures p));
    };
    {
      id = "durable";
      description = "durability: fsync batching and recovery cost";
      run = (fun p -> print_figures (Exp_durable.figures p));
    };
    {
      id = "txn";
      description = "transactions: compound EXEC entry vs N logged commands";
      run = (fun p -> print_figures (Exp_txn.figures p));
    };
  ]

let ids () = List.map (fun g -> g.id) groups
let find id = List.find_opt (fun g -> g.id = id) groups

let run_all params =
  List.iter
    (fun g ->
      Format.printf "=== %s: %s ===@." g.id g.description;
      g.run params)
    groups
