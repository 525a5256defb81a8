(** The client's model of what the server must answer.

    Every request gets a check when it is sent; the check runs on the
    reply and, when the reply is right, records what it acknowledged.  The
    load generator is single-threaded, so the model needs no locks, and a
    check can compare a reply with both what was acknowledged before the
    request was sent (a lower bound: those writes linearized earlier) and
    what has been sent by the time the reply arrives (an upper bound).

    Writers are connections [0 .. writers-1]; the preload writes as writer
    [writers]. *)

module C = Nr_kvstore.Command

(* values at least this large are checked by length and CRC of the write
   that made them, instead of re-deriving their filler *)
let big_value = 65536

type big = { b_writer : int; b_seq : int; b_len : int; b_crc : int }

type t = {
  writers : int;
  issued : int array;  (** per writer: highest value seq sent *)
  acked : (string, int array) Hashtbl.t;
      (** key -> per writer, seq of its last acknowledged SET (-1: none) *)
  big : (string, big) Hashtbl.t;  (** key -> last acknowledged big value *)
  zsent : (string * int, int) Hashtbl.t;  (** sum of ZINCRBY deltas sent *)
  zacked : (string * int, int) Hashtbl.t;  (** ... and acknowledged *)
  zmembers : (string, int) Hashtbl.t;  (** zset -> distinct members sent *)
}

(** Per-connection state: MULTI queues commands until EXEC. *)
type conn = { writer : int; mutable queued : C.t list option }

let create ~writers =
  {
    writers;
    issued = Array.make (writers + 1) (-1);
    acked = Hashtbl.create 4096;
    big = Hashtbl.create 16;
    zsent = Hashtbl.create 4096;
    zacked = Hashtbl.create 4096;
    zmembers = Hashtbl.create 256;
  }

let conn ~writer = { writer; queued = None }
let preload_writer t = t.writers

type check = C.reply -> (unit, string) result

let fail fmt = Printf.ksprintf (fun m -> Error m) fmt
let get0 tbl k = Option.value ~default:0 (Hashtbl.find_opt tbl k)

let show r = Format.asprintf "%a" C.pp_reply r

let expect_ok = function
  | C.Ok_reply -> Ok ()
  | r -> fail "expected OK, got %s" (show r)

let acked_row t k =
  match Hashtbl.find_opt t.acked k with
  | Some a -> a
  | None ->
      let a = Array.make (t.writers + 1) (-1) in
      Hashtbl.replace t.acked k a;
      a

(* -- per-command checks, built at send time -------------------------- *)

let set t ~writer k v : check =
  let w, seq =
    match Value.parse_header ~key:k v with
    | Ok (w, s, _) -> (w, s)
    | Error e -> invalid_arg ("Model.set: " ^ e)
  in
  if w <> writer then invalid_arg "Model.set: value names another writer";
  t.issued.(w) <- max t.issued.(w) seq;
  let big =
    if String.length v >= big_value then
      Some { b_writer = w; b_seq = seq; b_len = String.length v; b_crc = Value.crc v }
    else None
  in
  fun r ->
    match expect_ok r with
    | Error _ as e -> e
    | Ok () ->
        let row = acked_row t k in
        row.(w) <- max row.(w) seq;
        Option.iter (fun b -> Hashtbl.replace t.big k b) big;
        Ok ()

(** A GET must return a value written for its key, by a write that was
    sent, and not older than a write acknowledged before the GET was sent:
    not an older write of the same writer, and not the preload's once any
    connection's write to the key was acknowledged. *)
let get t k : check =
  let before = Array.copy (acked_row t k) in
  let any_acked = Array.exists (fun s -> s >= 0) before in
  let client_acked =
    Array.exists (fun s -> s >= 0) (Array.sub before 0 t.writers)
  in
  fun r ->
    match r with
    | C.Nil ->
        if any_acked then fail "GET %s: nil after an acknowledged SET" k
        else Ok ()
    | C.Bulk v -> (
        let checked =
          match Hashtbl.find_opt t.big k with
          | Some b -> (
              match Value.parse_header ~key:k v with
              | Ok (w, s, _) when w = b.b_writer && s = b.b_seq ->
                  if String.length v <> b.b_len then
                    fail "GET %s: length %d, wrote %d" k (String.length v)
                      b.b_len
                  else if Value.crc v <> b.b_crc then
                    fail "GET %s: checksum differs from the write" k
                  else Ok (w, s)
              | Ok _ -> (
                  match Value.parse ~key:k v with
                  | Ok (w, s, _) -> Ok (w, s)
                  | Error e -> fail "GET %s: %s" k e)
              | Error e -> fail "GET %s: %s" k e)
          | None -> (
              match Value.parse ~key:k v with
              | Ok (w, s, _) -> Ok (w, s)
              | Error e -> fail "GET %s: %s" k e)
        in
        match checked with
        | Error _ as e -> e
        | Ok (w, s) ->
            if w < 0 || w > t.writers then fail "GET %s: unknown writer %d" k w
            else if s > t.issued.(w) then
              fail "GET %s: seq %d of writer %d was never sent" k s w
            else if s < before.(w) then
              fail "GET %s: stale seq %d, writer %d had %d acknowledged" k s w
                before.(w)
            else if w = t.writers && client_acked then
              fail "GET %s: preload value after an acknowledged SET" k
            else Ok ())
    | r -> fail "GET %s: unexpected reply %s" k (show r)

let zincrby t k d m : check =
  if d <= 0 then invalid_arg "Model.zincrby: deltas must be positive";
  let km = (k, m) in
  let low = get0 t.zacked km + d in
  if not (Hashtbl.mem t.zsent km) then
    Hashtbl.replace t.zmembers k (get0 t.zmembers k + 1);
  Hashtbl.replace t.zsent km (get0 t.zsent km + d);
  fun r ->
    match r with
    | C.Int v ->
        let high = get0 t.zsent km in
        if v < low || v > high then
          fail "ZINCRBY %s %d: score %d outside [%d, %d]" k m v low high
        else begin
          Hashtbl.replace t.zacked km (get0 t.zacked km + d);
          Ok ()
        end
    | r -> fail "ZINCRBY %s %d: unexpected reply %s" k m (show r)

let zscore t k m : check =
  let km = (k, m) in
  let low = get0 t.zacked km in
  fun r ->
    let high = get0 t.zsent km in
    match r with
    | C.Nil -> if low > 0 then fail "ZSCORE %s %d: nil after an ack" k m else Ok ()
    | C.Int v ->
        if v < low || v > high || high = 0 then
          fail "ZSCORE %s %d: %d outside [%d, %d]" k m v low high
        else Ok ()
    | r -> fail "ZSCORE %s %d: unexpected reply %s" k m (show r)

let zrank t k m : check =
  let km = (k, m) in
  let present = get0 t.zacked km > 0 in
  fun r ->
    let members = get0 t.zmembers k in
    match r with
    | C.Nil -> if present then fail "ZRANK %s %d: nil after an ack" k m else Ok ()
    | C.Int v ->
        if v < 0 || v >= members || not (Hashtbl.mem t.zsent km) then
          fail "ZRANK %s %d: rank %d of %d members" k m v members
        else Ok ()
    | r -> fail "ZRANK %s %d: unexpected reply %s" k m (show r)

(* a SET+PEXPIRE pair may race another connection's pair on the same key,
   whose deadline can pass first *)
let pexpire k : check = function
  | C.Int (0 | 1) -> Ok ()
  | r -> fail "PEXPIRE %s: unexpected reply %s" k (show r)

let mset t ~writer pairs : check =
  let checks = List.map (fun (k, v) -> set t ~writer k v) pairs in
  fun r ->
    match expect_ok r with
    | Error _ as e -> e
    | Ok () -> List.fold_left (fun acc c -> Result.bind acc (fun () -> c C.Ok_reply)) (Ok ()) checks

let command t ~writer (cmd : C.t) : check =
  match cmd with
  | C.Set (k, v) -> set t ~writer k v
  | C.Get k -> get t k
  | C.Zincrby (k, d, m) -> zincrby t k d m
  | C.Zscore (k, m) -> zscore t k m
  | C.Zrank (k, m) -> zrank t k m
  | C.Pexpire (k, _) -> pexpire k
  | C.Mset pairs -> mset t ~writer pairs
  | C.Ping -> (
      function C.Pong -> Ok () | r -> fail "PING: unexpected reply %s" (show r))
  | C.Dbsize -> (
      function
      | C.Int n when n >= 0 -> Ok ()
      | r -> fail "DBSIZE: unexpected reply %s" (show r))
  | c ->
      invalid_arg
        (Format.asprintf "Model.command: %a is not in any workload" C.pp c)

(** The check for [cmd] sent on [conn], MULTI/EXEC included: commands
    queued inside MULTI answer QUEUED, and EXEC answers one entry per
    queued command, each checked like the command sent alone at EXEC
    time. *)
let send t (c : conn) (cmd : C.t) : check =
  match (c.queued, cmd) with
  | None, C.Multi ->
      c.queued <- Some [];
      expect_ok
  | Some q, C.Exec ->
      c.queued <- None;
      let body = List.rev q in
      let checks = List.map (command t ~writer:c.writer) body in
      let n = List.length checks in
      fun r -> (
        match r with
        | C.Array rs when List.length rs = n ->
            List.fold_left2
              (fun acc check r -> Result.bind acc (fun () -> check r))
              (Ok ()) checks rs
        | C.Array rs ->
            fail "EXEC: %d replies for %d queued commands" (List.length rs) n
        | r -> fail "EXEC: unexpected reply %s" (show r))
  | Some q, cmd ->
      c.queued <- Some (cmd :: q);
      (function
      | C.Bulk "QUEUED" -> Ok ()
      | r -> fail "queued command: unexpected reply %s" (show r))
  | None, cmd -> command t ~writer:c.writer cmd
