(** Optimistic-read experiment (no paper counterpart).

    Prices the seqlock read path where it should pay: a pure read
    workload, where optimistic readers skip the rwlock slot
    acquire/release entirely and the curve should sit strictly above
    stock NR. *)

let e = 0

let cfg_opt =
  {
    Nr_core.Config.default with
    optimistic_reads = true;
    read_patience = Some 4;
  }

let read_ceiling_figure (params : Params.t) =
  let series =
    List.map
      (fun (label, cfg) ->
        Sweep.threads_series params ~label ~setup:(fun ~threads rt ->
            let exec =
              Exp_pq.Sl_exp.W.build rt Method.NR ~cfg ~threads
                ~factory:(Exp_pq.Sl_exp.factory params) ()
            in
            Exp_pq.Sl_exp.body params ~update_pct:0 ~e ~exec rt))
      [ ("NR", Nr_core.Config.default); ("NR-opt", cfg_opt) ]
  in
  {
    Table.id = "opt-reads";
    title = "pure-read ceiling: optimistic seqlock reads vs slot path";
    x_label = "threads";
    y_label = "ops/us";
    series;
    notes =
      [
        Printf.sprintf "0%% updates, e=%d, %d initial items" e
          params.Params.population;
        "NR-opt = optimistic_reads + read_patience=4";
      ];
  }

let figures params = [ read_ceiling_figure params ]
