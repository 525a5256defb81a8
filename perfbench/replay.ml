(** The traced run's in-process replay: the TCP run's command stream fed
    through each layer's public functions, with a span around every call
    into a layer.

    Per connection, one domain parses each batch with [Resp.parse_request],
    decodes with [Command.of_strings], steps an [Nr_txn.Session.hook],
    executes through [Node_replication.Make (Runtime_domains) (Store)] and
    encodes with [Resp.encode_reply_buf].  After every update it taps the
    NR log into a [Persister] over [Vfs.real] under a mutex, as kv_server
    does with [--aof]; the persister compacts at four fixed points of the
    stream.  A last pass runs the commands NR executed through a bare
    [Store].

    Spans go to an [Nr_obs.Trace] (written out as a Chrome trace) and into
    per-domain sums; a layer's self time is its span minus the spans
    nested in it. *)

module C = Nr_kvstore.Command
module Resp = Nr_kvstore.Resp
module Store = Nr_kvstore.Store
module P = Nr_persist.Persister
module Trace = Nr_obs.Trace

let now_ns = Client.now_ns
let now_ms_wall () = int_of_float (Unix.gettimeofday () *. 1000.)

(* per-domain sums, ns unless named otherwise *)
type acc = {
  mutable reqs : int;
  mutable req_bytes : int;
  mutable parse : int;
  mutable encode : int;
  mutable resp_words : float;
  mutable decode : int;
  mutable txn : int;  (** session hook, minus executions inside it *)
  mutable exec : int;  (** everything under [exec]: nr + persist *)
  mutable nr_read : int;
  mutable reads : int;
  mutable nr_update : int;
  mutable updates : int;
  mutable nr_words : float;
  mutable persist : int;
  mutable logged : int;  (** log entries handed to the persister *)
  mutable exec_attempts : int;
  mutable exec_commits : int;
  mutable executed : C.t list;  (** what NR executed, newest first *)
  mutable compaction : int;
  mutable compactions : int;
  mutable user_bytes : int;
}

let acc () =
  {
    reqs = 0; req_bytes = 0; parse = 0; encode = 0; resp_words = 0.; decode = 0;
    txn = 0; exec = 0; nr_read = 0; reads = 0; nr_update = 0; updates = 0;
    nr_words = 0.; persist = 0; logged = 0; exec_attempts = 0;
    exec_commits = 0; executed = []; compaction = 0; compactions = 0;
    user_bytes = 0;
  }

(* what one call of [Gc.minor_words] allocates itself (its boxed float) *)
let words_overhead =
  lazy
    (let w0 = Gc.minor_words () in
     let w1 = Gc.minor_words () in
     w1 -. w0)

(** A Vfs that counts the bytes appended to the AOF. *)
let counting_vfs root appended =
  let fs = Nr_persist.Vfs.real ~root in
  {
    fs with
    Nr_persist.Vfs.open_append =
      (fun name ->
        let f = fs.open_append name in
        { f with append = (fun s -> appended := !appended + String.length s; f.append s) });
  }

type pass = {
  wall_ns : int;
  accs : acc array;
  stats : Nr_core.Stats.t;
  fsyncs : int;
  aof_appended : int;
  dir_bytes : int;
}

(** One pass over [batches.(conn)] (encoded request batches).  With
    [trace = None] nothing is timed but the whole pass. *)
let pass ~batches ~dir ~trace =
  let module R = (val Nr_runtime.Runtime_domains.make Nr_sim.Topology.tiny) in
  let module Db = Nr_core.Node_replication.Make (R) (Store) in
  Store.read_clock := Some now_ms_wall;
  let traced = trace <> None in
  let conns = Array.length batches in
  let accs = Array.init conns (fun _ -> acc ()) in
  let db = Db.create (fun () -> Store.create ()) in
  let appended = ref 0 in
  let fs = counting_vfs dir appended in
  let p =
    match
      P.create fs ~policy:(Nr_persist.Aof.Every_n 32) ~now_ms:now_ms_wall
        ~background:true ()
    with
    | Ok (p, _) -> p
    | Error e -> failwith ("replay persister: " ^ e)
  in
  let m = Mutex.create () in
  let tap_from = ref 0 in
  let locked f =
    Mutex.lock m;
    Fun.protect ~finally:(fun () -> Mutex.unlock m) f
  in
  let base = now_ns () in
  let span tid name t0 t1 =
    match trace with
    | Some tr -> Trace.slice tr ~tid ~node:0 ~cat:"kv" ~ts:(t0 - base) ~dur:(t1 - t0) name
    | None -> ()
  in
  let compact tid a =
    let t0 = now_ns () in
    let upto, dump = locked (fun () -> P.compaction_begin p) in
    P.compaction_write p ~upto ~dump;
    locked (fun () -> P.compaction_finish p ~upto);
    let t1 = now_ns () in
    a.compaction <- a.compaction + (t1 - t0);
    a.compactions <- a.compactions + 1;
    span tid "persist.compaction" t0 t1
  in
  let overhead = Lazy.force words_overhead in
  let body tid =
    let a = accs.(tid) in
    let exec cmd =
      let ro = C.is_read_only cmd in
      let t0 = if traced then now_ns () else 0 in
      let w0 = if traced then Gc.minor_words () else 0. in
      let r = Db.execute db cmd in
      if traced then begin
        let t1 = now_ns () in
        a.nr_words <- a.nr_words +. (Gc.minor_words () -. w0 -. overhead);
        if ro then begin
          a.nr_read <- a.nr_read + (t1 - t0);
          a.reads <- a.reads + 1;
          span tid "nr.read" t0 t1
        end
        else begin
          a.nr_update <- a.nr_update + (t1 - t0);
          a.updates <- a.updates + 1;
          span tid "nr.update" t0 t1
        end;
        a.executed <- cmd :: a.executed
      end;
      if not ro then begin
        let t2 = if traced then now_ns () else 0 in
        locked (fun () ->
            match Db.Unsafe.log_tap db ~from:!tap_from with
            | Ok ops ->
                tap_from := !tap_from + List.length ops;
                a.logged <- a.logged + List.length ops;
                P.observe p ops
            | Error oldest ->
                failwith (Printf.sprintf "replay: log recycled below %d" oldest));
        if traced then begin
          let t3 = now_ns () in
          a.persist <- a.persist + (t3 - t2);
          span tid "persist.observe" t2 t3
        end
      end;
      if traced then a.exec <- a.exec + (now_ns () - t0);
      r
    in
    let sess = Nr_txn.Session.hook ~exec ~clock:now_ms_wall in
    let out = Buffer.create 4096 in
    let mine = batches.(tid) in
    let quarter = max 1 (Array.length mine / 4) in
    Array.iteri
      (fun bi batch ->
        let tb = if traced then now_ns () else 0 in
        Buffer.clear out;
        let n = String.length batch in
        let pos = ref 0 in
        while !pos < n do
          let t0 = if traced then now_ns () else 0 in
          let w0 = if traced then Gc.minor_words () else 0. in
          let tokens, used =
            match Resp.parse_request ~pos:!pos batch with
            | Resp.Parsed (tokens, used) -> (tokens, used)
            | Resp.Incomplete | Resp.Invalid _ -> failwith "replay: bad request"
          in
          let t1 = if traced then now_ns () else 0 in
          let w1 = if traced then Gc.minor_words () else 0. in
          let cmd =
            match C.of_strings tokens with
            | Ok c -> c
            | Error e -> failwith ("replay: " ^ e)
          in
          let t2 = if traced then now_ns () else 0 in
          let e0 = a.exec in
          let hooked = sess cmd in
          let t3 = if traced then now_ns () else 0 in
          let in_hook = a.exec - e0 in
          let reply = match hooked with Some r -> r | None -> exec cmd in
          if cmd = C.Exec then begin
            a.exec_attempts <- a.exec_attempts + 1;
            match reply with C.Array _ -> a.exec_commits <- a.exec_commits + 1 | _ -> ()
          end;
          let t4 = if traced then now_ns () else 0 in
          let w4 = if traced then Gc.minor_words () else 0. in
          Resp.encode_reply_buf out reply;
          if traced then begin
            let t5 = now_ns () in
            let w5 = Gc.minor_words () in
            a.reqs <- a.reqs + 1;
            a.req_bytes <- a.req_bytes + used;
            a.parse <- a.parse + (t1 - t0);
            a.decode <- a.decode + (t2 - t1);
            a.txn <- a.txn + (t3 - t2 - in_hook);
            a.encode <- a.encode + (t5 - t4);
            a.resp_words <-
              a.resp_words +. (w1 -. w0 -. overhead) +. (w5 -. w4 -. overhead);
            span tid "resp.parse" t0 t1;
            span tid "command.decode" t1 t2;
            span tid "txn.step" t2 t3;
            span tid "resp.encode" t4 t5;
            span tid "request" t0 t5
          end;
          pos := !pos + used
        done;
        if traced then span tid "batch" tb (now_ns ());
        if tid = 0 && (bi + 1) mod quarter = 0 && (bi + 1) / quarter <= 4 then
          compact tid a)
      mine
  in
  let t0 = now_ns () in
  Nr_runtime.Runtime_domains.parallel_run ~nthreads:conns body;
  let wall_ns = now_ns () - t0 in
  let stats = Db.stats db in
  let fsyncs = P.fsyncs p in
  P.close p;
  Array.iter
    (fun a -> a.user_bytes <- List.fold_left (fun s c -> s + Perfbench_core.Gen.user_bytes c) 0 a.executed)
    accs;
  { wall_ns; accs; stats; fsyncs; aof_appended = !appended; dir_bytes = Proc.dir_bytes dir }

(** The bare store on the commands NR executed: total ns and count. *)
let store_pass executed =
  Store.read_clock := Some now_ms_wall;
  let s = Store.create () in
  let ns = ref 0 and n = ref 0 in
  List.iter
    (fun cmd ->
      let t0 = now_ns () in
      ignore (Store.execute s cmd);
      ns := !ns + (now_ns () - t0);
      incr n)
    executed;
  (!ns, !n)

type result = {
  untraced : pass;
  traced : pass;
  store_ns : int;
  store_ops : int;
  trace_events : int;
  trace_dropped : int;
}

(** Replay [batches] untraced, then traced (writing the Chrome trace to
    [trace_path]), then through the bare store.  [dir] holds the
    persisters' files and is removed afterwards. *)
let run ~batches ~dir ~trace_path =
  let conns = Array.length batches in
  let sub name = Filename.concat dir name in
  Proc.mkdir_p dir;
  let untraced = pass ~batches ~dir:(sub "untraced") ~trace:None in
  let tr = Trace.create ~capacity:16384 ~threads:conns ~now:now_ns () in
  let traced = pass ~batches ~dir:(sub "traced") ~trace:(Some tr) in
  let oc = open_out_bin trace_path in
  Trace.write_chrome tr oc;
  close_out oc;
  let executed =
    Array.fold_left (fun acc a -> List.rev_append a.executed acc) [] traced.accs
  in
  let store_ns, store_ops = store_pass executed in
  Proc.rm_rf dir;
  {
    untraced;
    traced;
    store_ns;
    store_ops;
    trace_events = Trace.recorded tr;
    trace_dropped = Trace.dropped tr;
  }
