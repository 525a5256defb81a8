(** RESP2 (REdis Serialization Protocol) codec — enough of the wire format
    for real clients to talk to the demo server: request arrays of bulk
    strings in, the five RESP reply types out. *)

type parse_result =
  | Parsed of string list * int  (** tokens, bytes consumed *)
  | Incomplete
  | Invalid of string

let crlf = "\r\n"

(* Find "\r\n" starting at [pos]; return index of '\r'. *)
let find_crlf s pos =
  let n = String.length s in
  let rec go i =
    if i + 1 >= n then None
    else if s.[i] = '\r' && s.[i + 1] = '\n' then Some i
    else go (i + 1)
  in
  go pos

let parse_int s ~start ~stop =
  match int_of_string_opt (String.sub s start (stop - start)) with
  | Some n -> Ok n
  | None -> Error "protocol error: expected integer"

(* Largest request bulk string accepted, as Redis' [proto-max-bulk-len]:
   a longer declared length is a protocol error rather than a buffer the
   connection waits forever to fill. *)
let max_bulk_len = 512 * 1024 * 1024

(** Parse one request starting at [pos].  Accepts the RESP array-of-bulk
    form and, like Redis, a plain inline command line. *)
let parse_request ?(pos = 0) (s : string) : parse_result =
  let n = String.length s in
  if pos >= n then Incomplete
  else if s.[pos] = '*' then begin
    match find_crlf s (pos + 1) with
    | None -> Incomplete
    | Some e -> (
        match parse_int s ~start:(pos + 1) ~stop:e with
        | Error m -> Invalid m
        | Ok count when count < 0 -> Invalid "protocol error: negative array"
        | Ok count ->
            let rec items k cursor acc =
              if k = 0 then Parsed (List.rev acc, cursor - pos)
              else if cursor >= n then Incomplete
              else if s.[cursor] <> '$' then
                Invalid "protocol error: expected bulk string"
              else
                match find_crlf s (cursor + 1) with
                | None -> Incomplete
                | Some e2 -> (
                    match parse_int s ~start:(cursor + 1) ~stop:e2 with
                    | Error m -> Invalid m
                    | Ok len when len < 0 ->
                        Invalid "protocol error: negative bulk length"
                    | Ok len when len > max_bulk_len ->
                        Invalid "protocol error: invalid bulk length"
                    | Ok len ->
                        let body = e2 + 2 in
                        (* [body + len] could wrap; [n - body] cannot *)
                        if len > n - body - 2 then Incomplete
                        else if
                          s.[body + len] <> '\r' || s.[body + len + 1] <> '\n'
                        then Invalid "protocol error: bad bulk terminator"
                        else
                          items (k - 1)
                            (body + len + 2)
                            (String.sub s body len :: acc))
            in
            items count (e + 2) [])
  end
  else begin
    (* inline command *)
    match find_crlf s pos with
    | None -> Incomplete
    | Some e ->
        let line = String.sub s pos (e - pos) in
        let tokens =
          String.split_on_char ' ' line |> List.filter (fun t -> t <> "")
        in
        if tokens = [] then Invalid "protocol error: empty inline command"
        else Parsed (tokens, e + 2 - pos)
  end

(** Streaming reply encoder: appends to [buf] without intermediate
    strings, so megabyte-sized binary-safe bulk payloads (snapshot
    streams, shipped log frame batches) cost one buffer grow instead of
    the O(n^2) concatenation the naive nested encoder would pay.  Bulk
    strings are length-prefixed, never scanned — any byte value,
    including CR, LF and NUL, passes through verbatim. *)
let rec encode_reply_buf buf (r : Command.reply) : unit =
  match r with
  | Command.Ok_reply -> Buffer.add_string buf "+OK\r\n"
  | Command.Pong -> Buffer.add_string buf "+PONG\r\n"
  | Command.Int n ->
      Buffer.add_char buf ':';
      Buffer.add_string buf (string_of_int n);
      Buffer.add_string buf crlf
  | Command.Bulk s ->
      Buffer.add_char buf '$';
      Buffer.add_string buf (string_of_int (String.length s));
      Buffer.add_string buf crlf;
      Buffer.add_string buf s;
      Buffer.add_string buf crlf
  | Command.Nil -> Buffer.add_string buf "$-1\r\n"
  | Command.Err e ->
      Buffer.add_string buf "-ERR ";
      Buffer.add_string buf e;
      Buffer.add_string buf crlf
  | Command.Array rs ->
      Buffer.add_char buf '*';
      Buffer.add_string buf (string_of_int (List.length rs));
      Buffer.add_string buf crlf;
      List.iter (encode_reply_buf buf) rs

let encode_reply (r : Command.reply) : string =
  let buf = Buffer.create 64 in
  encode_reply_buf buf r;
  Buffer.contents buf

type reply_result =
  | RParsed of Command.reply * int  (** reply, bytes consumed *)
  | RIncomplete
  | RInvalid of string

(** Decode one reply starting at [pos] — the inverse of {!encode_reply}.
    [+OK]/[+PONG] map back to their dedicated constructors and [-ERR m]
    back to [Err m], so [parse_reply (encode_reply r) = RParsed (r, _)]
    for every reply the store produces (the round-trip property). *)
let parse_reply ?(pos = 0) (s : string) : reply_result =
  let n = String.length s in
  (* absolute cursor in, [Ok (reply, absolute cursor after)] out *)
  let rec one cursor =
    if cursor >= n then Error `Incomplete
    else
      match s.[cursor] with
      | '+' | '-' | ':' -> (
          match find_crlf s (cursor + 1) with
          | None -> Error `Incomplete
          | Some e -> (
              let body = String.sub s (cursor + 1) (e - cursor - 1) in
              let fin = e + 2 in
              match s.[cursor] with
              | '+' -> (
                  match body with
                  | "OK" -> Ok (Command.Ok_reply, fin)
                  | "PONG" -> Ok (Command.Pong, fin)
                  | _ -> Error (`Invalid "protocol error: unknown status"))
              | '-' ->
                  let m =
                    if String.length body >= 4 && String.sub body 0 4 = "ERR "
                    then String.sub body 4 (String.length body - 4)
                    else body
                  in
                  Ok (Command.Err m, fin)
              | _ -> (
                  match int_of_string_opt body with
                  | Some v -> Ok (Command.Int v, fin)
                  | None -> Error (`Invalid "protocol error: bad integer"))))
      | '$' -> (
          match find_crlf s (cursor + 1) with
          | None -> Error `Incomplete
          | Some e -> (
              match parse_int s ~start:(cursor + 1) ~stop:e with
              | Error m -> Error (`Invalid m)
              | Ok -1 -> Ok (Command.Nil, e + 2)
              | Ok len when len < 0 ->
                  Error (`Invalid "protocol error: negative bulk length")
              | Ok len ->
                  let body = e + 2 in
                  if len > n - body - 2 then Error `Incomplete
                  else if s.[body + len] <> '\r' || s.[body + len + 1] <> '\n'
                  then Error (`Invalid "protocol error: bad bulk terminator")
                  else Ok (Command.Bulk (String.sub s body len), body + len + 2)
              ))
      | '*' -> (
          match find_crlf s (cursor + 1) with
          | None -> Error `Incomplete
          | Some e -> (
              match parse_int s ~start:(cursor + 1) ~stop:e with
              | Error m -> Error (`Invalid m)
              | Ok count when count < 0 ->
                  Error (`Invalid "protocol error: negative array")
              | Ok count ->
                  let rec items k cursor acc =
                    if k = 0 then Ok (Command.Array (List.rev acc), cursor)
                    else
                      match one cursor with
                      | Ok (r, cursor) -> items (k - 1) cursor (r :: acc)
                      | Error _ as err -> err
                  in
                  items count (e + 2) []))
      | _ -> Error (`Invalid "protocol error: unexpected reply type")
  in
  match one pos with
  | Ok (r, fin) -> RParsed (r, fin - pos)
  | Error `Incomplete -> RIncomplete
  | Error (`Invalid m) -> RInvalid m

let encode_request tokens =
  Printf.sprintf "*%d%s%s" (List.length tokens) crlf
    (String.concat ""
       (List.map
          (fun t -> Printf.sprintf "$%d%s%s%s" (String.length t) crlf t crlf)
          tokens))
