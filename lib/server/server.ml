module Metrics = Wolves_obs.Metrics
module Clock = Wolves_obs.Clock
module Log = Wolves_obs.Log
module Prom = Wolves_obs.Prom
module Ring = Wolves_trace.Trace

type config = {
  workers : int;
  queue_depth : int;
  read_timeout_s : float;
  write_timeout_s : float;
  max_request_bytes : int;
  default_deadline_ms : float option;
  retry_after_ms : int;
  drain_grace_s : float;
  slow_threshold_s : float option;
  trace_sample : int;
}

let default_config =
  { workers = 4;
    queue_depth = 64;
    read_timeout_s = 10.;
    write_timeout_s = 10.;
    max_request_bytes = 64 * 1024;
    default_deadline_ms = None;
    retry_after_ms = 100;
    drain_grace_s = 5.;
    slow_threshold_s = None;
    trace_sample = 0 }

let validate_config c =
  if c.workers < 1 then invalid_arg "Server: workers must be >= 1";
  if c.queue_depth < 1 then invalid_arg "Server: queue_depth must be >= 1";
  if c.read_timeout_s <= 0. || c.write_timeout_s <= 0. then
    invalid_arg "Server: timeouts must be positive";
  if c.max_request_bytes < 16 then
    invalid_arg "Server: max_request_bytes must be >= 16";
  if c.retry_after_ms < 0 then invalid_arg "Server: retry_after_ms must be >= 0";
  if c.drain_grace_s < 0. then invalid_arg "Server: drain_grace_s must be >= 0";
  (match c.slow_threshold_s with
  | Some s when s < 0. -> invalid_arg "Server: slow_threshold_s must be >= 0"
  | _ -> ());
  if c.trace_sample < 0 then invalid_arg "Server: trace_sample must be >= 0"

type stats = {
  connections : int;
  requests : int;
  errors : int;
  shed : int;
  timeouts : int;
  in_flight : int;
  queue_depth : int;
  draining : bool;
}

(* The fixed verb families every per-verb counter/histogram is keyed by:
   one slot per protocol request kind, plus "malformed" for lines that
   never parsed. Indexing is by [verb_index], total over any kind string. *)
let verbs =
  [| "ping"; "list"; "stats"; "health"; "metrics"; "trace"; "quit";
     "validate"; "correct"; "query"; "lint"; "analyze"; "malformed" |]

let verb_index kind =
  let n = Array.length verbs in
  let rec go i = if i >= n - 1 then n - 1 else if verbs.(i) = kind then i else go (i + 1) in
  go 0

(* The server's own metric cells: unregistered, so each [t] counts only its
   own traffic and records whether or not the process-wide registry is
   enabled. Names are the exposition series [metrics_lines] serves. *)
type cells = {
  requests : Metrics.counter;
  connections : Metrics.counter;
  errors : Metrics.counter;
  shed : Metrics.counter;
  timeouts : Metrics.counter;
  latency : Metrics.timer;
  verb_requests : Metrics.counter array;  (** indexed like [verbs] *)
  verb_errors : Metrics.counter array;
  verb_latency : Metrics.timer array;
}

let create_cells () =
  let per_verb make family =
    Array.map (fun verb -> make (Printf.sprintf "%s{verb=%S}" family verb)) verbs
  in
  { requests = Metrics.unregistered_counter "wolves_server_requests_total";
    connections = Metrics.unregistered_counter "wolves_server_connections_total";
    errors = Metrics.unregistered_counter "wolves_server_errors_total";
    shed = Metrics.unregistered_counter "wolves_server_shed_total";
    timeouts = Metrics.unregistered_counter "wolves_server_timeouts_total";
    latency = Metrics.unregistered_timer "wolves_server_latency";
    verb_requests =
      per_verb Metrics.unregistered_counter "wolves_server_verb_requests_total";
    verb_errors =
      per_verb Metrics.unregistered_counter "wolves_server_verb_errors_total";
    verb_latency = per_verb Metrics.unregistered_timer "wolves_server_verb_latency" }

type t = {
  config : config;
  service : Service.t;
  stop_flag : bool Atomic.t;
  drained_flag : bool Atomic.t;
  queue : (Unix.file_descr * float) Queue.t;
  qlock : Mutex.t;
  qcond : Condition.t;
  stop_lock : Mutex.t;
  mutable stopped : bool;
  mutable acceptor : unit Domain.t option;
  mutable worker_domains : unit Domain.t list;
  mutable listener : Unix.file_descr option;
  mutable socket_path : string option;
  active : Unix.file_descr option Atomic.t array;
      (** per-worker connection being served, for drain cut-off *)
  cells : cells;
  in_flight : int Atomic.t;  (** requests being handled right now *)
  next_req_id : int Atomic.t;
  trace_ring : Ring.t option;  (** sampled request spans, when sampling *)
  mutable saved_tracer : Metrics.tracer option;  (** restored on [stop] *)
  started_at : float;
}

(* --- request-scoped trace sampling ---------------------------------- *)

(* A sampled request buffers its span events domain-locally while the
   handler runs (the gate below), then commits them to the shared ring in
   one atomic batch at request end — so each request's spans are
   contiguous in the ring and reconstruct as one balanced tree, and the
   unsampled hot path never touches the ring at all. *)
let req_trace_gate : Ring.event list ref option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let no_args () = []

let buffering_tracer =
  (* The annotation thunk arrives unforced, so an unsampled request pays
     one domain-local read per event and never materialises its args. *)
  let push phase name args =
    match !(Domain.DLS.get req_trace_gate) with
    | None -> ()
    | Some buf ->
        buf := { Ring.phase; name; ts = Clock.now (); args = args () } :: !buf
  in
  { Metrics.on_begin = (fun name args -> push Ring.Begin name args);
    on_end = (fun name -> push Ring.End name no_args);
    on_instant = (fun name args -> push Ring.Instant name args) }

let create ?(config = default_config) service =
  validate_config config;
  let trace_ring =
    if config.trace_sample > 0 then Some (Ring.create ()) else None
  in
  let saved_tracer =
    (* Sampling needs the instrumented regions to emit events, so the
       buffering tracer goes in process-wide for the server's lifetime
       (it is inert outside sampled requests); [stop] restores whatever
       was installed before. *)
    if trace_ring <> None then begin
      let prev = Metrics.current_tracer () in
      Metrics.set_tracer (Some buffering_tracer);
      prev
    end
    else None
  in
  { config;
    service;
    stop_flag = Atomic.make false;
    drained_flag = Atomic.make false;
    queue = Queue.create ();
    qlock = Mutex.create ();
    qcond = Condition.create ();
    stop_lock = Mutex.create ();
    stopped = false;
    acceptor = None;
    worker_domains = [];
    listener = None;
    socket_path = None;
    active = Array.init config.workers (fun _ -> Atomic.make None);
    cells = create_cells ();
    in_flight = Atomic.make 0;
    next_req_id = Atomic.make 1;
    trace_ring;
    saved_tracer;
    started_at = Clock.now () }

let queue_len t =
  Mutex.lock t.qlock;
  let n = Queue.length t.queue in
  Mutex.unlock t.qlock;
  n

let stop_requested t = Atomic.get t.stop_flag
let drained t = Atomic.get t.drained_flag

let stats t =
  let c = t.cells in
  { connections = Metrics.counter_value c.connections;
    requests = Metrics.counter_value c.requests;
    errors = Metrics.counter_value c.errors;
    shed = Metrics.counter_value c.shed;
    timeouts = Metrics.counter_value c.timeouts;
    in_flight = Atomic.get t.in_flight;
    queue_depth = queue_len t;
    draining = stop_requested t }

let stats_lines t =
  let s = stats t in
  let latency = Metrics.timer_stats t.cells.latency in
  let percentile_ms q = Prom.percentile latency q *. 1e3 in
  [ Printf.sprintf "uptime_s %.3f" (Clock.elapsed_since t.started_at);
    Printf.sprintf "corpus %d" (Service.size t.service);
    Printf.sprintf "workers %d" t.config.workers;
    Printf.sprintf "connections %d" s.connections;
    Printf.sprintf "requests %d" s.requests ]
  @ Array.to_list
      (Array.mapi
         (fun i verb ->
           Printf.sprintf "requests_%s %d" verb
             (Metrics.counter_value t.cells.verb_requests.(i)))
         verbs)
  @ [ Printf.sprintf "errors %d" s.errors;
      Printf.sprintf "shed %d" s.shed;
      Printf.sprintf "timeouts %d" s.timeouts;
      Printf.sprintf "in_flight %d" s.in_flight;
      Printf.sprintf "queue_depth %d" s.queue_depth;
      Printf.sprintf "latency_p50_ms %.3f" (percentile_ms 0.5);
      Printf.sprintf "latency_p99_ms %.3f" (percentile_ms 0.99);
      Printf.sprintf "draining %b" s.draining ]

(* --- Prometheus exposition ------------------------------------------ *)

(* The page is three parts: the server's cells and levels as one snapshot
   through [Prom.render], the [{verb=...}] families by hand (the registry
   has no labels), then the process-wide registry through [Prom.render].
   The server's families carry a [wolves_] prefix, so they never collide
   with registry-derived names. *)
let metrics_lines t =
  let s = stats t and c = t.cells in
  let own =
    Metrics.cells_snapshot
      ~counters:[ c.requests; c.connections; c.errors; c.shed; c.timeouts ]
      ~timers:[ c.latency ]
  in
  let ring_counters, ring_gauges =
    match t.trace_ring with
    | Some ring ->
        ( [ ("wolves_server_trace_ring_dropped_total", Ring.dropped ring) ],
          [ ("wolves_server_trace_ring_events", float_of_int (Ring.length ring)) ] )
    | None -> ([], [])
  in
  let own =
    { own with
      counters = own.counters @ ring_counters;
      gauges =
        [ ("wolves_server_uptime_seconds", Clock.elapsed_since t.started_at);
          ("wolves_server_in_flight", float_of_int s.in_flight);
          ("wolves_server_queue_depth", float_of_int s.queue_depth);
          ("wolves_server_draining", if s.draining then 1. else 0.) ]
        @ ring_gauges }
  in
  let buf = Buffer.create 8192 in
  Buffer.add_string buf (Prom.render own);
  let per_verb_counter family cells =
    Printf.bprintf buf "# TYPE %s counter\n" family;
    Array.iteri
      (fun i verb ->
        Printf.bprintf buf "%s{verb=\"%s\"} %d\n" family verb
          (Metrics.counter_value cells.(i)))
      verbs
  in
  per_verb_counter "wolves_server_verb_requests_total" c.verb_requests;
  per_verb_counter "wolves_server_verb_errors_total" c.verb_errors;
  Buffer.add_string buf "# TYPE wolves_server_verb_latency_seconds_quantile gauge\n";
  Array.iteri
    (fun i verb ->
      let st = Metrics.timer_stats c.verb_latency.(i) in
      if st.Metrics.count > 0 then
        List.iter
          (fun q ->
            Printf.bprintf buf
              "wolves_server_verb_latency_seconds_quantile{verb=\"%s\",quantile=\"%g\"} %.9g\n"
              verb q (Prom.percentile st q))
          [ 0.5; 0.99 ])
    verbs;
  Buffer.add_string buf (Prom.render (Metrics.snapshot ()));
  String.split_on_char '\n' (Buffer.contents buf)
  |> List.filter (fun l -> l <> "")

let trace_events t =
  match t.trace_ring with None -> [] | Some ring -> Ring.events ring

let handle_request t ?(spent_s = 0.) request =
  match request with
  | Protocol.Stats -> Protocol.Ok_lines (stats_lines t)
  | Protocol.Health ->
      Protocol.Ok_lines
        [ (if stop_requested t then "draining" else "ok");
          Printf.sprintf "corpus %d" (Service.size t.service) ]
  | Protocol.Metrics -> Protocol.Ok_lines (metrics_lines t)
  | Protocol.Trace -> (
      match t.trace_ring with
      | None ->
          Protocol.Err
            ("bad-request", "tracing is off (serve with --trace-sample N)")
      | Some ring ->
          let events = Ring.drain ring in
          Wolves_trace.Export.to_jsonl events
          |> String.split_on_char '\n'
          |> List.filter (fun l -> l <> "")
          |> fun lines -> Protocol.Ok_lines lines)
  | request ->
      Service.handle ~domains:1 ~spent_s
        ?default_deadline_ms:t.config.default_deadline_ms t.service request

(* --- access log ------------------------------------------------------ *)

let outcome_fields reply =
  match reply with
  | Protocol.Ok_lines lines ->
      [ ("outcome", Log.Str "ok");
        ("payload_lines", Log.Int (List.length lines)) ]
  | Protocol.Err (code, _) ->
      [ ("outcome", Log.Str "err"); ("code", Log.Str code) ]
  | Protocol.Overloaded ms ->
      [ ("outcome", Log.Str "overloaded"); ("retry_after_ms", Log.Int ms) ]

let deadline_ms_of t parsed =
  match parsed with
  | Ok (Protocol.Correct (_, Some (Protocol.Deadline_ms ms))) -> Some ms
  | Ok (Protocol.Correct (_, None)) -> t.config.default_deadline_ms
  | _ -> None

(* One flat line per reconstructed span: [path dur_us self_us]. Compact
   enough for a log field, complete enough to see where a slow request
   went. *)
let span_tree_string events =
  let spans, _orphans = Ring.spans events in
  String.concat " | "
    (List.map
       (fun (sp : Ring.span) ->
         Printf.sprintf "%s %.0fus self %.0fus"
           (String.concat "/" sp.stack)
           ((sp.end_ts -. sp.begin_ts) *. 1e6)
           (sp.self_s *. 1e6))
       spans)

let log_request t ~rid ~kind ~parsed ~reply ~queued_s ~handler_s ~elapsed_s
    ~bytes_in ~bytes_out ~sampled ~events =
  if Log.enabled Log.Info then begin
    Log.event Log.Info "request" (fun () ->
        [ ("req_id", Log.Int rid);
          ("verb", Log.Str kind);
          ("deadline_ms",
           match deadline_ms_of t parsed with
           | Some ms -> Log.Float ms
           | None -> Log.Str "-");
          ("queue_wait_ms", Log.Float (queued_s *. 1e3));
          ("handler_ms", Log.Float (handler_s *. 1e3));
          ("total_ms", Log.Float (elapsed_s *. 1e3));
          ("bytes_in", Log.Int bytes_in);
          ("bytes_out", Log.Int bytes_out);
          ("sampled", Log.Bool sampled) ]
        @ outcome_fields reply);
    match t.config.slow_threshold_s with
    | Some threshold when handler_s >= threshold ->
        Log.event Log.Warn "slow_request" (fun () ->
            [ ("req_id", Log.Int rid);
              ("verb", Log.Str kind);
              ("handler_ms", Log.Float (handler_s *. 1e3));
              ("threshold_ms", Log.Float (threshold *. 1e3));
              ("spans",
               if sampled then Log.Str (span_tree_string events)
               else Log.Str "unsampled (raise --trace-sample)") ])
    | _ -> ()
  end

let serve_connection t ?(queued_s = 0.) (conn : Net_io.t) =
  Metrics.incr t.cells.connections;
  let reader = Net_io.Lines.reader conn in
  (* best-effort send: a dying peer must not take the worker with it *)
  let send s =
    match Net_io.send_all conn s with
    | () -> true
    | exception Net_io.Timeout ->
        Metrics.incr t.cells.timeouts;
        false
    | exception Net_io.Net_error _ -> false
  in
  let spent = ref queued_s in
  (try
     let continue = ref true in
     while !continue do
       if stop_requested t then begin
         ignore
           (send
              (Protocol.render
                 (Protocol.Err ("shutting-down", "server is draining"))));
         continue := false
       end
       else
         match
           Net_io.Lines.read_line reader ~max_bytes:t.config.max_request_bytes
         with
         | `Eof -> continue := false
         | `Too_long ->
             (* framing is lost: reply once, then the connection must die *)
             Metrics.incr t.cells.errors;
             ignore
               (send
                  (Protocol.render
                     (Protocol.Err
                        ( "too-large",
                          Printf.sprintf "request exceeds %d bytes"
                            t.config.max_request_bytes ))));
             continue := false
         | `Line line when String.trim line = "" -> ()
         | `Line line ->
             let t0 = Clock.now () in
             Atomic.incr t.in_flight;
             let rid = Atomic.fetch_and_add t.next_req_id 1 in
             let parsed = Protocol.parse line in
             let kind =
               match parsed with
               | Ok request -> Protocol.kind request
               | Error _ -> "malformed"
             in
             let this_queued_s = !spent in
             (* head-based sampling: every Nth request id buffers its span
                events; the rest never touch the tracer gate again *)
             let sample_buf =
               if
                 t.config.trace_sample > 0
                 && rid mod t.config.trace_sample = 0
               then begin
                 let buf =
                   ref
                     [ { Ring.phase = Ring.Begin;
                         name = "request";
                         ts = t0;
                         args =
                           [ ("req_id", string_of_int rid); ("verb", kind) ] } ]
                 in
                 Domain.DLS.get req_trace_gate := Some buf;
                 Some buf
               end
               else None
             in
             let reply =
               match parsed with
               | Error (code, msg) -> Protocol.Err (code, msg)
               | Ok request -> (
                   (* isolation: a raising handler costs one ERR reply *)
                   try handle_request t ~spent_s:!spent request
                   with e -> Protocol.Err ("internal", Printexc.to_string e))
             in
             let handler_s = Clock.elapsed_since t0 in
             let sampled_events =
               match sample_buf with
               | None -> []
               | Some buf ->
                   Domain.DLS.get req_trace_gate := None;
                   buf :=
                     { Ring.phase = Ring.End;
                       name = "request";
                       ts = Clock.now ();
                       args = [] }
                     :: !buf;
                   let events = List.rev !buf in
                   (match t.trace_ring with
                   | Some ring -> Ring.record_all ring events
                   | None -> ());
                   events
             in
             spent := 0.;
             let rendered = Protocol.render reply in
             let sent_ok = send rendered in
             let elapsed_s = Clock.elapsed_since t0 in
             let c = t.cells and vi = verb_index kind in
             Metrics.observe c.latency elapsed_s;
             Metrics.incr c.requests;
             Metrics.incr c.verb_requests.(vi);
             Metrics.observe c.verb_latency.(vi) elapsed_s;
             (match reply with
             | Protocol.Err _ ->
                 Metrics.incr c.errors;
                 Metrics.incr c.verb_errors.(vi)
             | _ -> ());
             Atomic.decr t.in_flight;
             log_request t ~rid ~kind ~parsed ~reply ~queued_s:this_queued_s
               ~handler_s ~elapsed_s ~bytes_in:(String.length line + 1)
               ~bytes_out:(String.length rendered) ~sampled:(sample_buf <> None)
               ~events:sampled_events;
             (match parsed with
             | Ok Protocol.Quit -> continue := false
             | _ -> ());
             if not sent_ok then continue := false
     done
   with
  | Net_io.Timeout ->
      (* slow-loris or idle past the read deadline *)
      Metrics.incr t.cells.timeouts;
      (try
         Net_io.send_all conn
           (Protocol.render
              (Protocol.Err ("timeout", "no complete request within deadline")))
       with Net_io.Timeout | Net_io.Net_error _ -> ())
  | Net_io.Net_error _ -> ()
  | _ -> Metrics.incr t.cells.errors);
  try conn.Net_io.close () with _ -> ()

(* ------------------------------------------------------------------ *)
(* Accept loop, workers, lifecycle                                     *)
(* ------------------------------------------------------------------ *)

let shed_connection t fd =
  Metrics.incr t.cells.shed;
  let rid = Atomic.fetch_and_add t.next_req_id 1 in
  Log.event Log.Info "request" (fun () ->
      (* the request line was never read — the connection was refused at
         the door — but the shed is still one numbered access-log record *)
      [ ("req_id", Log.Int rid);
        ("verb", Log.Str "-");
        ("outcome", Log.Str "overloaded");
        ("retry_after_ms", Log.Int t.config.retry_after_ms) ]);
  let conn = Net_io.of_fd ~read_timeout_s:0.1 ~write_timeout_s:0.5 fd in
  (try
     Net_io.send_all conn
       (Protocol.render (Protocol.Overloaded t.config.retry_after_ms))
   with Net_io.Timeout | Net_io.Net_error _ -> ());
  try conn.Net_io.close () with _ -> ()

let accept_loop t fd =
  let stop = ref false in
  while not !stop do
    if stop_requested t then stop := true
    else
      match Unix.select [ fd ] [] [] 0.2 with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | [], _, _ -> ()
      | _ -> (
          match Unix.accept ~cloexec:true fd with
          | exception
              Unix.Unix_error
                ( ( Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR
                  | Unix.ECONNABORTED ),
                  _,
                  _ ) ->
              ()
          | exception Unix.Unix_error _ -> stop := true
          | cfd, _ ->
              Mutex.lock t.qlock;
              if Queue.length t.queue >= t.config.queue_depth then begin
                Mutex.unlock t.qlock;
                (* load-shedding: refuse in O(1), never block the acceptor *)
                shed_connection t cfd
              end
              else begin
                Queue.push (cfd, Clock.now ()) t.queue;
                Condition.signal t.qcond;
                Mutex.unlock t.qlock
              end)
  done;
  (try Unix.close fd with Unix.Unix_error _ -> ());
  match t.socket_path with
  | Some p -> ( try Sys.remove p with Sys_error _ -> ())
  | None -> ()

let worker_loop t i =
  let rec next () =
    Mutex.lock t.qlock;
    let rec await () =
      if not (Queue.is_empty t.queue) then Some (Queue.pop t.queue)
      else if stop_requested t then None
      else begin
        Condition.wait t.qcond t.qlock;
        await ()
      end
    in
    let item = await () in
    Mutex.unlock t.qlock;
    match item with
    | None -> ()
    | Some (fd, enqueued_at) ->
        Atomic.set t.active.(i) (Some fd);
        (if stop_requested t then begin
           (* accepted but never served: a fast typed refusal beats a hang *)
           let conn = Net_io.of_fd ~read_timeout_s:0.1 ~write_timeout_s:0.5 fd in
           (try
              Net_io.send_all conn
                (Protocol.render
                   (Protocol.Err ("shutting-down", "server is draining")))
            with Net_io.Timeout | Net_io.Net_error _ -> ());
           try conn.Net_io.close () with _ -> ()
         end
         else
           let conn =
             Net_io.of_fd ~read_timeout_s:t.config.read_timeout_s
               ~write_timeout_s:t.config.write_timeout_s fd
           in
           serve_connection t ~queued_s:(Clock.elapsed_since enqueued_at) conn);
        Atomic.set t.active.(i) None;
        next ()
  in
  next ()

type listen = Tcp of string * int | Unix_socket of string

(* A peer that disappears mid-reply must surface as EPIPE (mapped to
   Net_error by Net_io), not kill the process with SIGPIPE. *)
let ignore_sigpipe () =
  if Sys.os_type = "Unix" then
    try ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore)
    with Invalid_argument _ | Sys_error _ -> ()

let start ?(config = default_config) listen service =
  ignore_sigpipe ();
  match
    let t = create ~config service in
    let fd, path =
      match listen with
      | Tcp (host, port) ->
          let addr =
            try Unix.inet_addr_of_string host
            with Failure _ -> (
              match Unix.gethostbyname host with
              | { Unix.h_addr_list = [||]; _ } ->
                  failwith (Printf.sprintf "cannot resolve %s" host)
              | { Unix.h_addr_list; _ } -> h_addr_list.(0)
              | exception Not_found ->
                  failwith (Printf.sprintf "cannot resolve %s" host))
          in
          let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
          (try
             Unix.setsockopt fd Unix.SO_REUSEADDR true;
             Unix.bind fd (Unix.ADDR_INET (addr, port));
             Unix.listen fd 128
           with e ->
             (try Unix.close fd with _ -> ());
             raise e);
          (fd, None)
      | Unix_socket p ->
          if Sys.file_exists p then (try Unix.unlink p with _ -> ());
          let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
          (try
             Unix.bind fd (Unix.ADDR_UNIX p);
             Unix.listen fd 128
           with e ->
             (try Unix.close fd with _ -> ());
             raise e);
          (fd, Some p)
    in
    t.listener <- Some fd;
    t.socket_path <- path;
    t.acceptor <- Some (Domain.spawn (fun () -> accept_loop t fd));
    t.worker_domains <-
      List.init config.workers (fun i -> Domain.spawn (fun () -> worker_loop t i));
    t
  with
  | t -> Ok t
  | exception Unix.Unix_error (e, fn, arg) ->
      Error (Printf.sprintf "%s(%s): %s" fn arg (Unix.error_message e))
  | exception Failure msg -> Error msg
  | exception Invalid_argument msg -> Error msg

let address t =
  match t.listener with
  | None -> None
  | Some fd -> ( try Some (Unix.getsockname fd) with Unix.Unix_error _ -> None)

let request_stop t = Atomic.set t.stop_flag true

let stop t =
  Mutex.lock t.stop_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.stop_lock)
    (fun () ->
      if not t.stopped then begin
        t.stopped <- true;
        Atomic.set t.stop_flag true;
        Mutex.lock t.qlock;
        Condition.broadcast t.qcond;
        Mutex.unlock t.qlock;
        (match t.acceptor with
        | Some d ->
            Domain.join d;
            t.acceptor <- None
        | None -> ());
        t.listener <- None;
        (* grace for in-flight connections, then cut their sockets so a
           worker blocked in a receive comes back *)
        let deadline = Clock.now () +. t.config.drain_grace_s in
        let all_idle () =
          Array.for_all (fun a -> Atomic.get a = None) t.active
        in
        while (not (all_idle ())) && Clock.now () < deadline do
          Unix.sleepf 0.02
        done;
        Array.iter
          (fun a ->
            match Atomic.get a with
            | Some fd -> (
                try Unix.shutdown fd Unix.SHUTDOWN_ALL
                with Unix.Unix_error _ -> ())
            | None -> ())
          t.active;
        Mutex.lock t.qlock;
        Condition.broadcast t.qcond;
        Mutex.unlock t.qlock;
        List.iter Domain.join t.worker_domains;
        t.worker_domains <- [];
        (* hand the tracer slot back and get the access log on disk *)
        if t.trace_ring <> None then Metrics.set_tracer t.saved_tracer;
        Log.flush ();
        Atomic.set t.drained_flag true
      end)
