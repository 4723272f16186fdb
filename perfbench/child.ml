(* An lhserve child process driven over its stdin/stdout line protocol.

   - Both pipes are created close-on-exec: a child that inherited the
     write end of its own stdin would never see EOF.
   - The child starts with every LH_* variable removed from the
     environment; each setting it needs is passed as an explicit flag.
   - Every spawned child is registered until reaped, and [kill_all] (run
     at exit and on SIGINT/SIGTERM) kills and reaps whatever is left, so
     a failing benchmark never leaves a server behind. *)

type t = {
  pid : int;
  stdin_w : Unix.file_descr;
  stdout_r : Unix.file_descr;
  buf : Bytes.t;
  mutable pos : int;
  mutable len : int;
  mutable reaped : bool;
}

let live : t list ref = ref []

let scrubbed_env () =
  Unix.environment () |> Array.to_list
  |> List.filter (fun kv -> not (String.length kv >= 3 && String.sub kv 0 3 = "LH_"))
  |> Array.of_list

let spawn ~bin args =
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY; Unix.O_CLOEXEC ] 0 in
  let pid =
    Fun.protect
      ~finally:(fun () -> List.iter Unix.close [ in_r; out_w; devnull ])
      (fun () -> Unix.create_process_env bin (Array.of_list (bin :: args)) (scrubbed_env ()) in_r out_w devnull)
  in
  let c =
    { pid; stdin_w = in_w; stdout_r = out_r; buf = Bytes.create 65536; pos = 0; len = 0;
      reaped = false }
  in
  live := c :: !live;
  c

let reap c =
  if not c.reaped then begin
    c.reaped <- true;
    live := List.filter (fun x -> x != c) !live;
    (try Unix.close c.stdin_w with Unix.Unix_error _ -> ());
    (try Unix.close c.stdout_r with Unix.Unix_error _ -> ());
    let rec wait () =
      match Unix.waitpid [] c.pid with
      | _ -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
      | exception Unix.Unix_error _ -> ()
    in
    wait ()
  end

let kill c =
  if not c.reaped then begin
    (try Unix.kill c.pid Sys.sigkill with Unix.Unix_error _ -> ());
    reap c
  end

let kill_all () = List.iter kill !live

let () =
  at_exit kill_all;
  (try ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore) with Invalid_argument _ -> ());
  let on_signal _ =
    kill_all ();
    exit 3
  in
  List.iter
    (fun s -> try Sys.set_signal s (Sys.Signal_handle on_signal) with Invalid_argument _ -> ())
    [ Sys.sigint; Sys.sigterm ]

let send c s =
  let b = Bytes.unsafe_of_string s in
  let rec go off =
    if off < Bytes.length b then go (off + Unix.write c.stdin_w b off (Bytes.length b - off))
  in
  go 0

exception Died

(* One response line. A child silent for 60 s is treated as wedged. *)
let recv c =
  let line = Buffer.create 64 in
  let rec go () =
    if c.pos >= c.len then begin
      (match Unix.select [ c.stdout_r ] [] [] 60.0 with
      | [], _, _ -> failwith "lhserve child silent for 60 s"
      | _ -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      let n = try Unix.read c.stdout_r c.buf 0 (Bytes.length c.buf) with Unix.Unix_error (Unix.EINTR, _, _) -> -1 in
      if n = 0 then raise Died;
      if n > 0 then begin
        c.pos <- 0;
        c.len <- n
      end;
      go ()
    end
    else
      match Bytes.index_from_opt c.buf c.pos '\n' with
      | Some i when i < c.len ->
          Buffer.add_subbytes line c.buf c.pos (i - c.pos);
          c.pos <- i + 1;
          Buffer.contents line
      | _ ->
          Buffer.add_subbytes line c.buf c.pos (c.len - c.pos);
          c.pos <- c.len;
          go ()
  in
  go ()

(* A request's response: the status line and, for results, its rows. *)
type response = { status : string; rows : string list }

let words s =
  List.filter (( <> ) "") (String.split_on_char ' ' (String.map (function '\t' -> ' ' | c -> c) s))

let read_response c =
  let status = recv c in
  match words status with
  | "ok" :: "epoch" :: _ :: "rows" :: n :: _ ->
      let n = int_of_string n in
      { status; rows = List.init n (fun _ -> recv c) }
  | _ -> { status; rows = [] }

let request c line =
  send c (line ^ "\n");
  read_response c

let is_ok r = String.length r.status >= 2 && String.sub r.status 0 2 = "ok"

(* The integer after [key] in a status line, e.g. [field "epoch" r]. *)
let field key r =
  let rec find = function
    | k :: v :: _ when k = key -> int_of_string_opt v
    | _ :: rest -> find rest
    | [] -> None
  in
  find (words r.status)

let expect_ok what r =
  if not (is_ok r) then failwith (Printf.sprintf "%s: %s" what r.status);
  r

(* VmHWM of a live process, in MB. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" (if pid = 0 then "self" else string_of_int pid) in
  match In_channel.with_open_text path In_channel.input_all with
  | s ->
      List.fold_left
        (fun acc l ->
          match words l with
          | [ "VmHWM:"; kb; "kB" ] -> float_of_string kb /. 1024.0
          | _ -> acc)
        nan (String.split_on_char '\n' s)
  | exception Sys_error _ -> nan

(* Ask the server to exit and wait for it. *)
let quit c =
  (try ignore (request c "quit") with _ -> ());
  reap c
