(** Sharded Node Replication: hash-partition the key space across
    [cfg.shards] independent NR instances — each with its own log,
    replicas and combiners — behind the same executor surface as plain
    NR.  Lifts the single-log ceiling the paper concedes in §8.3 for
    update-heavy workloads, while each shard's linearizability argument
    is exactly plain NR's.

    {2 Linearization argument}

    Single-key operations execute on the key's home shard under that
    shard's reader slot of a per-shard {!Nr_sync.Rwlock_dist}; their
    linearization point is the one plain NR gives them (inside the
    shard's log/replica protocol, which includes the [completedTail]
    freshness wait for reads).

    Cross-shard operations (MGET/MSET/DBSIZE/FLUSHALL) write-acquire the
    locks of every involved shard in canonical (ascending) order, then
    run one sub-operation per shard through that shard's NR instance,
    then release.  Write acquisition drains the in-flight single-key
    operations of those shards and blocks new ones, so the whole
    multi-shard window is atomic with respect to single-key traffic; and
    each sub-operation inherits NR's per-shard freshness guarantee, so a
    cross-shard read observes everything that completed before the locks
    were taken.  The linearization point is any instant inside the fully
    locked window.  Ascending acquisition order across all cross-shard
    operations rules out deadlock (single-key ops hold at most one lock
    and never block on another).

    {2 shards = 1}

    With one shard there is nothing to coordinate: no locks are
    allocated or touched and every operation goes straight to the single
    NR instance.  Routing is pure OCaml (zero virtual time), so the
    charge sequence is byte-identical to plain NR — op-count-identical
    under the hot-path determinism guard. *)

type route =
  | Single of string  (** touches one key: executes on its home shard *)
  | Cross  (** multi-key / whole-store: goes through the coordinator *)

(** How the coordinator takes a compound transaction apart.  A structure
    that has transactions exposes [decompose]; everything else says
    [None] and pays nothing.

    A transaction whose keys (watches + body) all live on one shard is
    submitted whole through that shard's NR — one compound log entry,
    plain NR's linearization.  A cross-shard transaction runs as a
    two-phase guarded window under the canonical-order write locks:
    phase 1 probes each involved shard's watch stamps with [test] (a
    read), and only if every probe [passed] does phase 2 execute the body
    commands — so no shard ever commits a transaction another shard
    aborted, and the fully-locked window gives the whole block one
    linearization point exactly as for the other cross-shard ops. *)
type ('op, 'res) txn_support = {
  decompose : 'op -> ((string * int) list * 'op list) option;
  test : (string * int) list -> 'op;  (** read-only per-shard stamp probe *)
  passed : 'res -> bool;  (** did the probe validate? *)
  abort : 'res;  (** the whole-transaction abort reply *)
  commit : 'res list -> 'res;  (** assemble body replies *)
  lift : 'op -> 'op;
      (** wrap one body command so it executes with the transaction's
          deterministic (logical-clock) read semantics when submitted to
          a shard on its own — e.g. as a singleton compound entry *)
  unlift : 'res -> 'res;  (** undo [lift] on the command's reply *)
}

(** What the sharded wrapper needs beyond {!Nr_core.Ds_intf.S}: a route
    per operation, and for cross-shard operations a split into at most
    one sub-operation per shard plus a merge of the sub-results. *)
module type SHARDABLE = sig
  include Nr_core.Ds_intf.S

  val route : op -> route

  val split :
    op -> shards:int -> shard_of:(string -> int) -> (int * op) list
  (** Sub-operations of a cross-shard op, in strictly ascending shard
      order (the coordinator's canonical lock order), at most one per
      shard, only for shards actually involved. *)

  val merge :
    op ->
    shards:int ->
    shard_of:(string -> int) ->
    (int * result) list ->
    result
  (** Combine the sub-results (same shard indices [split] produced) into
      the operation's reply. *)

  val txn : (op, result) txn_support option
  (** [None] for structures without compound transactions. *)
end

module Make (R : Nr_runtime.Runtime_intf.S) (Sub : SHARDABLE) = struct
  module NR = Nr_core.Node_replication.Make (R) (Sub)
  module Rw = Nr_sync.Rwlock_dist.Make (R)

  type t = {
    cfg : Nr_core.Config.t;
    router : Router.t;
    shards : NR.t array;
    locks : Rw.t array;  (** empty when [shards = 1]: pure passthrough *)
    stats : Shard_stats.t;
  }

  let create ?(cfg = Nr_core.Config.default)
      ~(factory : shard:int -> shard_of:(string -> int) -> unit -> Sub.t) () =
    Nr_core.Config.validate cfg;
    let n = cfg.Nr_core.Config.shards in
    let bypass =
      cfg.Nr_core.Config.mutation = Some Nr_core.Config.Router_bypass
    in
    let router =
      Router.create ~bypass ~shards:n ~seed:cfg.Nr_core.Config.router_seed ()
    in
    let shard_of = Router.shard_of router in
    let shards =
      Array.init n (fun i -> NR.create ~cfg (factory ~shard:i ~shard_of))
    in
    let locks =
      if n = 1 then [||]
      else
        (* writer flag + slots homed round-robin so cross-shard traffic
           does not all hammer node 0; shard locks inherit the patience
           knob so single-key readers back off under the shared cap *)
        Array.init n (fun i ->
            Rw.create
              ~home:(i mod R.num_nodes ())
              ?patience:cfg.Nr_core.Config.read_patience
              ~readers:(R.max_threads ()) ())
    in
    { cfg; router; shards; locks; stats = Shard_stats.create ~shards:n () }

  let num_shards t = Array.length t.shards
  let config t = t.cfg
  let router t = t.router
  let stats t = t.stats

  let nr_stats t = Array.map NR.stats t.shards
  (** Per-shard NR counters.  (Each shard also registers with
      {!Nr_core.Stats}'s run-scoped collection, so harness totals
      aggregate across shards with no extra wiring.) *)

  let exec_single t s op =
    let slot = R.tid () in
    Rw.read_lock t.locks.(s) slot;
    let r = NR.execute t.shards.(s) op in
    Rw.read_unlock t.locks.(s) slot;
    Shard_stats.record_single t.stats s;
    r

  let exec_cross t op =
    let shards = Array.length t.shards in
    let shard_of = Router.shard_of t.router in
    let subs = Sub.split op ~shards ~shard_of in
    let tracing = Nr_obs.Sink.tracing () in
    if tracing then
      Nr_obs.Sink.span_begin ~tid:(R.tid ()) ~node:(R.my_node ())
        ~cat:"shard" "cross";
    (* canonical ascending order: [split]'s contract *)
    List.iter (fun (i, _) -> Rw.write_lock t.locks.(i)) subs;
    let results =
      List.map (fun (i, sub) -> (i, NR.execute t.shards.(i) sub)) subs
    in
    List.iter (fun (i, _) -> Rw.write_unlock t.locks.(i)) subs;
    let locks = List.length subs in
    Shard_stats.record_cross t.stats ~subops:locks ~locks;
    if tracing then
      Nr_obs.Sink.span_end ~tid:(R.tid ()) ~node:(R.my_node ()) ~cat:"shard"
        ~arg:locks "cross";
    Sub.merge op ~shards ~shard_of results

  (* Two-phase guarded transaction across shards; all involved locks are
     already ordered ascending by construction of [slots]. *)
  let exec_txn t ts op ~watches ~body =
    let n = Array.length t.shards in
    let shard_of = Router.shard_of t.router in
    let involved = Array.make n false in
    List.iter (fun (k, _) -> involved.(shard_of k) <- true) watches;
    List.iter
      (fun c ->
        match Sub.route c with
        | Single k -> involved.(shard_of k) <- true
        | Cross -> Array.fill involved 0 n true)
      body;
    let slots =
      List.filter (fun i -> involved.(i)) (List.init n (fun i -> i))
    in
    match slots with
    | [] | [ _ ] ->
        (* at most one shard involved: the compound entry goes through that
           shard's log whole — a single linearization point for free *)
        let s = match slots with [ s ] -> s | _ -> 0 in
        exec_single t s op
    | slots ->
        let tracing = Nr_obs.Sink.tracing () in
        if tracing then
          Nr_obs.Sink.span_begin ~tid:(R.tid ()) ~node:(R.my_node ())
            ~cat:"shard" "txn";
        List.iter (fun i -> Rw.write_lock t.locks.(i)) slots;
        let ok =
          List.for_all
            (fun i ->
              let ws_i =
                List.filter (fun (k, _) -> shard_of k = i) watches
              in
              ws_i = []
              || ts.passed (NR.execute t.shards.(i) (ts.test ws_i)))
            slots
        in
        let result =
          if not ok then ts.abort
          else
            ts.commit
              (List.map
                 (fun c ->
                   (* body commands submitted per shard are lifted so their
                      reads stay logical — byte-for-byte the semantics the
                      single-shard compound entry gives the same body *)
                   match Sub.route c with
                   | Single k ->
                       ts.unlift
                         (NR.execute t.shards.(shard_of k) (ts.lift c))
                   | Cross ->
                       let subs = Sub.split c ~shards:n ~shard_of in
                       Sub.merge c ~shards:n ~shard_of
                         (List.map
                            (fun (i, sub) ->
                              ( i,
                                ts.unlift
                                  (NR.execute t.shards.(i) (ts.lift sub)) ))
                            subs))
                 body)
        in
        List.iter (fun i -> Rw.write_unlock t.locks.(i)) slots;
        let locks = List.length slots in
        Shard_stats.record_cross t.stats ~subops:(List.length body) ~locks;
        if tracing then
          Nr_obs.Sink.span_end ~tid:(R.tid ()) ~node:(R.my_node ())
            ~cat:"shard" ~arg:locks "txn";
        result

  let execute t op =
    if Array.length t.locks = 0 then NR.execute t.shards.(0) op
    else
      let parts =
        match Sub.txn with
        | Some ts -> (
            match ts.decompose op with
            | Some (w, b) -> Some (ts, w, b)
            | None -> None)
        | None -> None
      in
      match parts with
      | Some (ts, watches, body) -> exec_txn t ts op ~watches ~body
      | None -> (
          match Sub.route op with
          | Single key ->
              let s =
                if Sub.is_read_only op then Router.read_shard_of t.router key
                else Router.shard_of t.router key
              in
              exec_single t s op
          | Cross -> exec_cross t op)

  let register_metrics reg ?prefix t =
    Shard_stats.register_metrics reg ?prefix t.stats

  (** Quiescent-only introspection, mirroring {!NR.Unsafe}. *)
  module Unsafe = struct
    let shard t i = t.shards.(i)
    let sync t = Array.iter NR.Unsafe.sync t.shards

    let replica t ~shard ~node = NR.Unsafe.replica t.shards.(shard) node
  end
end
