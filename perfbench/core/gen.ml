(** The workloads and their seeded command streams.

    A stream is a pure function of the seed and the connection index, so
    the traced run can replay exactly the commands the TCP run sent. *)

module C = Nr_kvstore.Command
module Prng = Nr_workload.Prng
module Zipf = Nr_workload.Zipf

type kind = Mixed | Durable | Large

type spec = {
  name : string;
  kind : kind;
  conns : int;  (** connections, each a closed loop *)
  depth : int;  (** requests per batch (pipeline depth) *)
  group : int;
      (** requests per latency sample: kv-large-values times each SET+GET
          pair, because its six request kinds and sizes would put the
          median of single requests on the edge between two of them *)
  aof : bool;  (** the server persists to a fresh AOF directory *)
  snapshot_every : int;  (** [--snapshot-every] when [aof] *)
}

let specs =
  [
    { name = "kv-mixed"; kind = Mixed; conns = 2; depth = 32; group = 1; aof = false; snapshot_every = 0 };
    { name = "kv-durable"; kind = Durable; conns = 2; depth = 1; group = 1; aof = true; snapshot_every = 15_000 };
    { name = "kv-large-values"; kind = Large; conns = 1; depth = 1; group = 2; aof = false; snapshot_every = 0 };
  ]

let find name = List.find_opt (fun s -> s.name = name) specs

(* keyspace sizes: the MSET preload stays well under a second, a small
   share of a run *)
let mixed_keys = 10_000
let durable_keys = 10_000
let zsets = 256
let zset_members = 8
let ttl_keys = 256
let large_keys = 8
let small_value = 64
let large_sizes = [| 65536; 262144; 1048576 |]
let zipf_theta = 0.99
let mset_batch = 500

let key i = Nr_workload.String_keys.key i
let zkey i = "z" ^ string_of_int i
let tkey i = "t" ^ string_of_int i
let lkey i = "L" ^ string_of_int i

type stream = {
  spec : spec;
  rng : Prng.t;
  writer : int;
  mutable seq : int;  (** value sequence of this writer *)
  queue : C.t Queue.t;  (** rest of a multi-command action *)
  zipf_keys : Zipf.t;
  zipf_zsets : Zipf.t;
  mutable large_step : int;
}

(* one zipf table per process: building it is O(keys) *)
let zipf_cache = Hashtbl.create 4

let zipf n =
  match Hashtbl.find_opt zipf_cache n with
  | Some z -> z
  | None ->
      let z = Zipf.create ~theta:zipf_theta ~n () in
      Hashtbl.replace zipf_cache n z;
      z

(** The streams of all connections of [spec] under [seed]. *)
let streams spec ~seed =
  let master = Prng.create ~seed in
  List.init spec.conns (fun writer ->
      {
        spec;
        rng = Prng.split master;
        writer;
        seq = 0;
        queue = Queue.create ();
        zipf_keys = zipf mixed_keys;
        zipf_zsets = zipf zsets;
        large_step = 0;
      })

let value st k ~size =
  st.seq <- st.seq + 1;
  Value.make k ~writer:st.writer ~seq:st.seq ~size

let set st k = C.Set (k, value st k ~size:small_value)
let delta st = 1 + Prng.below st.rng 10

let mixed st =
  let r = Prng.below st.rng 100 in
  let k () = key (Zipf.sample st.zipf_keys st.rng) in
  let z () = zkey (Zipf.sample st.zipf_zsets st.rng) in
  let m () = Prng.below st.rng zset_members in
  if r < 70 then C.Get (k ())
  else if r < 75 then
    let z = z () in
    C.Zscore (z, m ())
  else if r < 80 then
    let z = z () in
    C.Zrank (z, m ())
  else if r < 90 then set st (k ())
  else
    let z = z () in
    let d = delta st in
    C.Zincrby (z, d, m ())

let durable st =
  let r = Prng.below st.rng 100 in
  let k () = key (Prng.below st.rng durable_keys) in
  let zincrby () =
    let z = zkey (Prng.below st.rng zsets) in
    let d = delta st in
    C.Zincrby (z, d, Prng.below st.rng (2 * zset_members))
  in
  if r < 40 then set st (k ())
  else if r < 65 then zincrby ()
  else if r < 80 then begin
    for _ = 1 to 4 do
      Queue.push (if Prng.bool st.rng then set st (k ()) else zincrby ()) st.queue
    done;
    Queue.push C.Exec st.queue;
    C.Multi
  end
  else if r < 90 then begin
    let t = tkey (Prng.below st.rng ttl_keys) in
    Queue.push (C.Pexpire (t, 20 + Prng.below st.rng 180)) st.queue;
    set st t
  end
  else C.Get (k ())

(* SET a key, then GET it back; sizes cycle through [large_sizes] *)
let large st =
  let k = lkey (Prng.below st.rng large_keys) in
  let size = large_sizes.(st.large_step mod Array.length large_sizes) in
  st.large_step <- st.large_step + 1;
  Queue.push (C.Get k) st.queue;
  C.Set (k, value st k ~size)

(** The next command of a stream. *)
let next st =
  if not (Queue.is_empty st.queue) then Queue.pop st.queue
  else
    match st.spec.kind with
    | Mixed -> mixed st
    | Durable -> durable st
    | Large -> large st

(** Whether the stream is inside a command group (a MULTI block, a
    SET+PEXPIRE or SET+GET pair) that must finish before the load stops. *)
let in_group st = not (Queue.is_empty st.queue)

(** The longest TTL a stream sets, in milliseconds. *)
let max_ttl_ms = 200

(** MSET batches that fill the string keyspace before a run, written as
    the preload writer [spec.conns].  Sorted sets start empty: ZINCRBY
    creates them, and the round's warm-up fills the hot ones. *)
let preload spec =
  let writer = spec.conns in
  let keys =
    match spec.kind with Mixed -> mixed_keys | Durable -> durable_keys | Large -> 0
  in
  List.init
    ((keys + mset_batch - 1) / mset_batch)
    (fun b ->
      let lo = b * mset_batch in
      C.Mset
        (List.init
           (min mset_batch (keys - lo))
           (fun i ->
             let k = key (lo + i) in
             (k, Value.make k ~writer ~seq:(lo + i) ~size:small_value))))

(** A fixed sample of the keyspace, read before and after a restart. *)
let durability_sample spec =
  match spec.kind with
  | Durable ->
      List.init 64 (fun i -> C.Get (key (i * (durable_keys / 64))))
      @ List.init 16 (fun i -> C.Zscore (zkey (i * (zsets / 16)), i mod 4))
  | Mixed | Large -> []

(** Bytes of keys and values a write carries (0 for a read). *)
let rec user_bytes (cmd : C.t) =
  let digits n = String.length (string_of_int n) in
  match cmd with
  | C.Set (k, v) -> String.length k + String.length v
  | C.Mset ps ->
      List.fold_left (fun acc (k, v) -> acc + String.length k + String.length v) 0 ps
  | C.Zincrby (k, d, m) -> String.length k + digits d + digits m
  | C.Pexpire (k, ms) | C.Pexpireat (k, ms) -> String.length k + digits ms
  | C.Txn (_, body) -> List.fold_left (fun acc c -> acc + user_bytes c) 0 body
  | _ -> 0
