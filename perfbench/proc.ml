(** The kv_server child process: spawn it, read the port from its banner,
    read its peak RSS, stop it.  Every spawned server is killed and reaped
    at exit, whatever path the benchmark leaves by. *)

type t = { pid : int; port : int; out : Unix.file_descr; stderr_path : string }

let live = ref []

let reap pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
  live := List.filter (( <> ) pid) !live

let () = at_exit (fun () -> List.iter reap !live)

exception Failed of string

let failf fmt = Printf.ksprintf (fun m -> raise (Failed m)) fmt

(* reads to EOF: files under /proc report a length of 0 *)
let read_file path =
  match open_in_bin path with
  | ic ->
      let s = In_channel.input_all ic in
      close_in ic;
      s
  | exception Sys_error _ -> ""

(* the last lines of the server's stderr, for a failure report *)
let stderr_tail t =
  let lines = String.split_on_char '\n' (read_file t.stderr_path) in
  let n = List.length lines in
  String.concat "\n" (List.filteri (fun i _ -> i >= n - 12) lines)

let rec restart_on_eintr f =
  try f () with Unix.Unix_error (Unix.EINTR, _, _) -> restart_on_eintr f

(** Start [exe args] with stdout on a pipe and stderr in [stderr_path],
    and return once its banner names the port. *)
let spawn ~exe ~args ~stderr_path ~timeout_s =
  let r, w = Unix.pipe ~cloexec:true () in
  let err =
    Unix.openfile stderr_path
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ]
      0o644
  in
  let pid =
    Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin w err
  in
  Unix.close w;
  Unix.close err;
  live := pid :: !live;
  let died why =
    reap pid;
    Unix.close r;
    let t = { pid; port = 0; out = r; stderr_path } in
    failf "kv_server %s; stderr (%s):\n%s" why stderr_path (stderr_tail t)
  in
  let buf = Buffer.create 256 in
  let chunk = Bytes.create 4096 in
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec wait () =
    match Perfbench_core.Banner.port_of_output (Buffer.contents buf) with
    | Some port -> { pid; port; out = r; stderr_path }
    | None ->
        let left = deadline -. Unix.gettimeofday () in
        if left <= 0. then died "printed no listening banner in time"
        else begin
          (match restart_on_eintr (fun () -> Unix.select [ r ] [] [] left) with
          | [], _, _ -> ()
          | _ ->
              let n = restart_on_eintr (fun () -> Unix.read r chunk 0 4096) in
              if n = 0 then died "exited before listening"
              else Buffer.add_subbytes buf chunk 0 n);
          wait ()
        end
  in
  wait ()

(** Peak resident set ([VmHWM]) in MiB. *)
let peak_rss_mb t =
  let status = read_file (Printf.sprintf "/proc/%d/status" t.pid) in
  match
    List.find_map
      (fun line ->
        match String.split_on_char ':' line with
        | [ "VmHWM"; v ] ->
            Scanf.sscanf_opt (String.trim v) "%d kB" (fun kb -> float kb /. 1024.)
        | _ -> None)
      (String.split_on_char '\n' status)
  with
  | Some mb -> mb
  | None -> failf "no VmHWM in /proc/%d/status" t.pid

(** Whether the server is still running. *)
let alive t =
  match Unix.waitpid [ Unix.WNOHANG ] t.pid with
  | 0, _ -> true
  | _ ->
      live := List.filter (( <> ) t.pid) !live;
      false
  | exception Unix.Unix_error _ -> false

let kill t =
  reap t.pid;
  try Unix.close t.out with Unix.Unix_error _ -> ()

let rec dir_bytes path =
  match Sys.is_directory path with
  | true ->
      Array.fold_left
        (fun acc f -> acc + dir_bytes (Filename.concat path f))
        0 (Sys.readdir path)
  | false -> (Unix.stat path).Unix.st_size
  | exception Sys_error _ -> 0

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let mkdir_p path =
  let rec go p =
    if not (Sys.file_exists p) then begin
      go (Filename.dirname p);
      Sys.mkdir p 0o755
    end
  in
  go path
