(* One [mjoin serve] child process and the single-threaded client that
   drives it over one Unix-socket connection, one request at a time:
   each request is sent when the previous one has been answered. *)

let now = Mj_obs.Obs.monotonic_time

type t = {
  pid : int;
  sock : string;
  fd : Unix.file_descr;
  buf : Buffer.t;  (** bytes received after the last complete line *)
  chunk : Bytes.t;
}

let rec restart_on_eintr f x =
  try f x with Unix.Unix_error (Unix.EINTR, _, _) -> restart_on_eintr f x

let send t line =
  let b = Bytes.of_string (line ^ "\n") in
  let rec go off =
    if off < Bytes.length b then
      go (off + restart_on_eintr (Unix.write t.fd b off) (Bytes.length b - off))
  in
  go 0

(* Complete lines among the bytes that can be read now (blocks until at
   least one byte arrives). *)
let read_lines t =
  let k = restart_on_eintr (Unix.read t.fd t.chunk 0) (Bytes.length t.chunk) in
  if k = 0 then failwith "mjoin serve closed the connection";
  Buffer.add_subbytes t.buf t.chunk 0 k;
  match String.split_on_char '\n' (Buffer.contents t.buf) with
  | [] -> []
  | parts ->
      let rev = List.rev parts in
      Buffer.clear t.buf;
      Buffer.add_string t.buf (List.hd rev);
      List.rev (List.tl rev)

(* Wait up to [timeout] seconds for the connection to become readable. *)
let readable t timeout =
  match restart_on_eintr (Unix.select [ t.fd ] [] []) timeout with
  | [], _, _ -> false
  | _ -> true

(* The daemon gets none of this process's MJ_* settings: every engine
   choice it makes comes from its flags or from the request lines. *)
let clean_env () =
  Array.of_list
    (List.filter
       (fun e -> not (String.starts_with ~prefix:"MJ_" e))
       (Array.to_list (Unix.environment ())))

let exited pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> false
  | _ -> true
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true

let reap pid =
  let deadline = now () +. 10. in
  while (not (exited pid)) && now () < deadline do
    Unix.sleepf 0.005
  done;
  if not (exited pid) then begin
    (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
    ignore (restart_on_eintr (Unix.waitpid []) pid)
  end

let spawn ~mjoin ~sock =
  let pid =
    Unix.create_process_env mjoin
      [|
        mjoin; "serve"; "--listen"; "unix:" ^ sock; "--domains"; "1";
        "--queue-cap"; "256";
      |]
      (clean_env ()) Unix.stdin Unix.stderr Unix.stderr
  in
  let deadline = now () +. 20. in
  let rec connect () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX sock) with
    | () -> fd
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
      when now () < deadline && not (exited pid) ->
        Unix.close fd;
        Unix.sleepf 0.002;
        connect ()
    | exception e ->
        Unix.close fd;
        reap pid;
        raise e
  in
  let fd = connect () in
  { pid; sock; fd; buf = Buffer.create 4096; chunk = Bytes.create 65536 }

(* Fails instead of hanging when a response never comes. *)
let stall_limit = 30.

(* One request, answered before the next is sent. *)
let call t line =
  send t line;
  let rec wait () =
    if not (readable t stall_limit) then failwith "mjoin serve stopped answering";
    match read_lines t with
    | [] -> wait ()
    | [ r ] -> r
    | _ -> failwith "mjoin serve answered more lines than it was sent"
  in
  wait ()

let shutdown t =
  (try ignore (call t {|{"op":"shutdown"}|}) with _ -> ());
  (try Unix.close t.fd with Unix.Unix_error _ -> ());
  reap t.pid;
  try Unix.unlink t.sock with Unix.Unix_error _ -> ()

(* Peak resident set ([VmHWM]) of a process, in MB. *)
let peak_rss_mb pid =
  let path =
    if pid = 0 then "/proc/self/status" else Printf.sprintf "/proc/%d/status" pid
  in
  In_channel.with_open_text path (fun ic ->
      let rec find () =
        match In_channel.input_line ic with
        | None -> nan
        | Some l when String.starts_with ~prefix:"VmHWM:" l ->
            Scanf.sscanf l "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
        | Some _ -> find ()
      in
      find ())
