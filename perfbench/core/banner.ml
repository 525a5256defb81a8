(** The port a kv_server announces on stdout once it accepts connections:

    {v kv-server listening on 127.0.0.1:40113 (2 workers, net=pool, ...) v}

    With [--aof] a ["recovered to position ..."] line comes first, so the
    reader scans lines until one carries the marker. *)

let marker = "listening on 127.0.0.1:"

let find_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i =
    if i + m > n then None
    else if String.sub s i m = sub then Some i
    else go (i + 1)
  in
  go 0

let port_of_line line =
  match find_sub line marker with
  | None -> None
  | Some i ->
      let start = i + String.length marker in
      let stop = ref start in
      while
        !stop < String.length line && line.[!stop] >= '0' && line.[!stop] <= '9'
      do
        incr stop
      done;
      if !stop = start then None
      else int_of_string_opt (String.sub line start (!stop - start))

(** The port named by the first complete line of [output] that carries
    the marker; a last line without its newline may still be arriving. *)
let port_of_output output =
  match List.rev (String.split_on_char '\n' output) with
  | [] -> None
  | _partial :: complete -> List.find_map port_of_line (List.rev complete)
