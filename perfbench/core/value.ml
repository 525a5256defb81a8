(** Values the benchmark writes name their key and the write that made
    them: ["<key>|<writer>|<seq>|"] followed by a filler derived from those
    three fields, up to the value's size.  A GET reply therefore proves
    which write it returns, and a corrupted byte anywhere shows. *)

let header key ~writer ~seq = Printf.sprintf "%s|%d|%d|" key writer seq
let filler_seed key ~writer ~seq = Hashtbl.hash (key, writer, seq)
let filler_char seed i = Char.unsafe_chr (97 + ((seed + i) mod 26))

let make key ~writer ~seq ~size =
  let h = header key ~writer ~seq in
  let hl = String.length h in
  if size < hl then invalid_arg "Value.make: size below header length";
  let seed = filler_seed key ~writer ~seq in
  let b = Bytes.create size in
  Bytes.blit_string h 0 b 0 hl;
  for i = hl to size - 1 do
    Bytes.unsafe_set b i (filler_char seed i)
  done;
  Bytes.unsafe_to_string b

(** [(writer, seq, header length)] from a value's header, checking it
    names [key]. *)
let parse_header ~key v =
  let field from =
    match String.index_from_opt v from '|' with
    | Some j -> Some (String.sub v from (j - from), j + 1)
    | None -> None
  in
  let kl = String.length key in
  if String.length v <= kl || String.sub v 0 kl <> key || v.[kl] <> '|' then
    Error "value does not carry its key"
  else
    match field (kl + 1) with
    | None -> Error "value header truncated"
    | Some (w, next) -> (
        match field next with
        | None -> Error "value header truncated"
        | Some (s, hl) -> (
            match (int_of_string_opt w, int_of_string_opt s) with
            | Some w, Some s -> Ok (w, s, hl)
            | _ -> Error "value header is not numeric"))

(** Full check of a value built by {!make} for [key]: header and filler. *)
let parse ~key v =
  match parse_header ~key v with
  | Error _ as e -> e
  | Ok (writer, seq, hl) ->
      let seed = filler_seed key ~writer ~seq in
      let n = String.length v in
      let rec ok i = i >= n || (v.[i] = filler_char seed i && ok (i + 1)) in
      if ok hl then Ok (writer, seq, hl)
      else Error "value filler corrupted"

let crc = Nr_persist.Crc32.digest
