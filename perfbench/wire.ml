(* The server as its own process, and the client side of the wire. *)

module Json = Whynot.Json

(* --- the server process --- *)

type server = {
  pid : int;
  port : int;
  stdout_r : Unix.file_descr;
  log_path : string;
}

let live : int list ref = ref []

(* Stop every server still running when the benchmark exits, whatever
   the path out. *)
let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
           (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
           try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !live)

let fail fmt = Printf.ksprintf failwith fmt

(* Read the boot line within [timeout_s]; it names the bound port. *)
let read_boot_line fd ~timeout_s =
  let buf = Buffer.create 64 and byte = Bytes.create 1 in
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec go () =
    let left = deadline -. Unix.gettimeofday () in
    if left <= 0. then fail "the server printed no boot line within %.0f s" timeout_s;
    match Unix.select [ fd ] [] [] left with
    | [], _, _ -> go ()
    | _ ->
      if Unix.read fd byte 0 1 = 0 then fail "the server exited before it was listening"
      else if Bytes.get byte 0 = '\n' then Buffer.contents buf
      else (Buffer.add_bytes buf byte; go ())
  in
  go ()

(* The shipped binary, default configuration, access log on and kept in
   [log_path]; the runtime prints its GC totals there on exit. *)
let spawn ~exe ~log_path =
  let env =
    Array.append [| "OCAMLRUNPARAM=v=0x400" |]
      (Array.of_list
         (List.filter
            (fun kv -> not (String.starts_with ~prefix:"OCAMLRUNPARAM=" kv))
            (Array.to_list (Unix.environment ()))))
  in
  let stdout_r, stdout_w = Unix.pipe ~cloexec:true () in
  let log = Unix.openfile log_path [ O_WRONLY; O_CREAT; O_TRUNC; O_CLOEXEC ] 0o644 in
  let null = Unix.openfile "/dev/null" [ O_RDONLY; O_CLOEXEC ] 0 in
  let pid = Unix.create_process_env exe [| exe |] env null stdout_w log in
  live := pid :: !live;
  Unix.close stdout_w;
  Unix.close log;
  Unix.close null;
  let boot = read_boot_line stdout_r ~timeout_s:60. in
  let port =
    match String.rindex_opt boot ':' with
    | Some i -> int_of_string_opt (String.sub boot (i + 1) (String.length boot - i - 1))
    | None -> None
  in
  match port with
  | Some port -> { pid; port; stdout_r; log_path }
  | None -> fail "unexpected boot line %S" boot

(* VmHWM of the server, in MB, from /proc/<pid>/status. *)
let peak_rss_mb s =
  let ic = open_in (Printf.sprintf "/proc/%d/status" s.pid) in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
      let rec go () =
        match input_line ic with
        | exception End_of_file -> fail "no VmHWM line for the server"
        | l when String.starts_with ~prefix:"VmHWM:" l ->
          Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB" (fun kb ->
              float_of_int kb /. 1024.)
        | _ -> go ()
      in
      go ())

type gc = {
  minor_words : float;
  promoted_words : float;
  major_words : float;
  minor_collections : float;
  major_collections : float;
}

(* SIGTERM, wait for the drain (SIGKILL after 60 s), then read the GC
   totals the runtime printed on exit. *)
let stop s =
  (try Unix.kill s.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = Unix.gettimeofday () +. 60. in
  let rec wait () =
    match Unix.waitpid [ WNOHANG ] s.pid with
    | 0, _ when Unix.gettimeofday () < deadline -> Unix.sleepf 0.005; wait ()
    | 0, _ ->
      Unix.kill s.pid Sys.sigkill;
      ignore (Unix.waitpid [] s.pid);
      fail "the server did not drain within 60 s of SIGTERM"
    | _, status -> status
  in
  let status = wait () in
  live := List.filter (( <> ) s.pid) !live;
  Unix.close s.stdout_r;
  (match status with
   | WEXITED 0 -> ()
   | WEXITED n -> fail "the server exited with code %d" n
   | WSIGNALED n | WSTOPPED n -> fail "the server died on signal %d" n);
  (* The statistics are "name: value" lines after the access log. *)
  let fields = Hashtbl.create 16 in
  let ic = open_in s.log_path in
  (try
     while true do
       Scanf.sscanf_opt (input_line ic) "%[a-z_]: %f%!" (Hashtbl.replace fields) |> ignore
     done
   with End_of_file -> ());
  close_in ic;
  let get k =
    match Hashtbl.find_opt fields k with
    | Some v -> v
    | None -> fail "the server's exit statistics lack %s" k
  in
  {
    minor_words = get "minor_words";
    promoted_words = get "promoted_words";
    major_words = get "major_words";
    minor_collections = get "minor_collections";
    major_collections = get "major_collections";
  }

(* --- client connections --- *)

type conn = { ic : in_channel; oc : out_channel; mutable sent : int }

let connect port =
  let ic, oc = Unix.open_connection (Unix.ADDR_INET (Unix.inet_addr_loopback, port)) in
  { ic; oc; sent = 0 }

let disconnect c = Unix.shutdown_connection c.ic; close_in c.ic

(* One request line out, one reply line back. *)
let request c line =
  output_string c.oc line;
  output_char c.oc '\n';
  flush c.oc;
  c.sent <- c.sent + 1;
  input_line c.ic

(* The server closes a connection after 10,000 requests; reconnect well
   before that, between operations. *)
let refresh port c =
  if c.sent < 9_000 then c else (disconnect c; connect port)

(* A reply's result, or the error it carries. *)
let result reply =
  match Json.of_string reply with
  | Error _ -> Error ("unparsable reply: " ^ reply)
  | Ok j -> (
    match (Json.member "result" j, Json.member "error" j) with
    | Some r, _ -> Ok r
    | None, Some e ->
      Error
        (Printf.sprintf "error reply %s"
           (Option.value ~default:"?" (Option.bind (Json.member "code" e) Json.to_string_opt)))
    | None, None -> Error ("reply with neither result nor error: " ^ reply))

let counters_of_stats reply =
  match result reply with
  | Error m -> fail "stats: %s" m
  | Ok r -> (
    match Json.member "counters" r with
    | Some (Json.Obj kvs) ->
      List.filter_map (fun (k, v) -> Option.map (fun n -> (k, n)) (Json.to_int_opt v)) kvs
    | _ -> fail "stats reply without counters")
