(* Every cell is atomic, so any domain may record into any cell at any
   time: pool workers, server worker domains and the coordinating domain
   all write the same records, and a snapshot taken mid-flight is always
   internally consistent. Each counter and timer carries the switch that
   gates it — registered cells share the registry's enable flag,
   unregistered ones the constant [always] — so the disabled path stays a
   single load-and-branch either way. *)

let flag = ref false

let always = ref true

type counter = {
  c_name : string;
  c_on : bool ref;
  c_value : int Atomic.t;
}

type gauge = {
  g_name : string;
  g_value : float option Atomic.t;  (** [None] until first set *)
}

(* Shared fixed log-scale bucket bounds: powers of 2 from 4ns, the last
   bucket unbounded. 39 bounded buckets span 4ns .. ~1100s, and the factor-2
   step keeps every percentile estimate within 2x of the true value. *)
let n_buckets = 40

let bucket_bounds =
  Array.init n_buckets (fun i ->
      if i = n_buckets - 1 then infinity else 4e-9 *. Float.of_int (1 lsl i))

(* The bucket of a duration in integer nanoseconds: the first [i] with
   [ns <= 4 lsl i], or the unbounded last one. *)
let bucket_of_ns ns =
  let rec go i bound =
    if ns <= bound || i = n_buckets - 1 then i else go (i + 1) (bound lsl 1)
  in
  go 0 4

type timer = {
  t_name : string;
  t_on : bool ref;
  t_buckets : int Atomic.t array;
  t_sum_ns : int Atomic.t;
  t_max_ns : int Atomic.t;
}

type metric =
  | Counter of counter
  | Gauge of gauge
  | Timer of timer

(* --- registry --- *)

let registry : (string, metric) Hashtbl.t = Hashtbl.create 64

(* The registry hashtable is shared by every domain (worker domains
   register span timers on first use), so all structural access — find,
   replace, iterate — happens under this lock. Recording into an already
   obtained handle does not touch the table. *)
let registry_lock = Mutex.create ()

let locked f =
  Mutex.lock registry_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock registry_lock) f

(* Two independent switches share the fast path: [flag] gates metric
   recording, [tracer] receives event-level begin/end/instant callbacks.
   [hot] is their disjunction, maintained on every switch flip, so the
   timed-region combinators ([time], [with_span]) still pay exactly one
   load-and-branch when both are off. *)

type span_args = (string * string) list

type tracer = {
  on_begin : string -> (unit -> span_args) -> unit;
  on_end : string -> unit;
  on_instant : string -> (unit -> span_args) -> unit;
}

let tracer : tracer option ref = ref None

let hot = ref false

let refresh_hot () = hot := !flag || !tracer <> None

let set_enabled b =
  flag := b;
  refresh_hot ()

let is_enabled () = !flag

let enabled f =
  let saved = !flag in
  set_enabled true;
  Fun.protect ~finally:(fun () -> set_enabled saved) f

let set_tracer t =
  tracer := t;
  refresh_hot ()

let has_tracer () = !tracer <> None

let current_tracer () = !tracer

let with_tracer t f =
  let saved = !tracer in
  set_tracer (Some t);
  Fun.protect ~finally:(fun () -> set_tracer saved) f

let kind_name = function
  | Counter _ -> "counter"
  | Gauge _ -> "gauge"
  | Timer _ -> "timer"

let register name make extract =
  locked @@ fun () ->
  match Hashtbl.find_opt registry name with
  | Some m ->
    (match extract m with
     | Some x -> x
     | None ->
       invalid_arg
         (Printf.sprintf "Metrics: %S is already registered as a %s" name
            (kind_name m)))
  | None ->
    let x, m = make () in
    Hashtbl.replace registry name m;
    x

let new_counter on name = { c_name = name; c_on = on; c_value = Atomic.make 0 }

let new_timer on name =
  { t_name = name;
    t_on = on;
    t_buckets = Array.init n_buckets (fun _ -> Atomic.make 0);
    t_sum_ns = Atomic.make 0;
    t_max_ns = Atomic.make 0 }

let counter name =
  register name
    (fun () ->
      let c = new_counter flag name in
      (c, Counter c))
    (function Counter c -> Some c | _ -> None)

let gauge name =
  register name
    (fun () ->
      let g = { g_name = name; g_value = Atomic.make None } in
      (g, Gauge g))
    (function Gauge g -> Some g | _ -> None)

let timer name =
  register name
    (fun () ->
      let t = new_timer flag name in
      (t, Timer t))
    (function Timer t -> Some t | _ -> None)

let unregistered_counter name = new_counter always name

let unregistered_timer name = new_timer always name

(* --- recording --- *)

let add c n = if !(c.c_on) then ignore (Atomic.fetch_and_add c.c_value n)

let incr c = add c 1

let set g v = if !flag then Atomic.set g.g_value (Some v)

(* Seconds to rounded integer nanoseconds, clamped to [0, 1e9 s] so that
   negative, NaN and absurd durations cannot break the integer sum. *)
let ns_of_seconds d =
  if d > 0.0 then Float.to_int ((Float.min d 1e9 *. 1e9) +. 0.5) else 0

let rec raise_to cell v =
  let cur = Atomic.get cell in
  if v > cur && not (Atomic.compare_and_set cell cur v) then raise_to cell v

let observe t d =
  if !(t.t_on) then begin
    let ns = ns_of_seconds d in
    (* max and sum before the bucket: a concurrent [timer_stats], which
       reads the buckets first, sees both for every observation it counts *)
    raise_to t.t_max_ns ns;
    ignore (Atomic.fetch_and_add t.t_sum_ns ns);
    Atomic.incr t.t_buckets.(bucket_of_ns ns)
  end

let no_args () = []

(* The ring-buffer tracer is a single shared collector and is not
   domain-safe, so parallel jobs run under [untraced]: a domain-local
   switch that silences event emission while recording carries on. *)
let quiet_key : bool ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref false)

let untraced f =
  let quiet = Domain.DLS.get quiet_key in
  let saved = !quiet in
  quiet := true;
  Fun.protect ~finally:(fun () -> quiet := saved) f

let trace_begin name args =
  match !tracer with
  | Some tr when not !(Domain.DLS.get quiet_key) -> tr.on_begin name args
  | _ -> ()

let trace_end name =
  match !tracer with
  | Some tr when not !(Domain.DLS.get quiet_key) -> tr.on_end name
  | _ -> ()

let time ?(args = no_args) t f =
  if not !hot then f ()
  else begin
    trace_begin t.t_name args;
    let start = Clock.now () in
    Fun.protect
      ~finally:(fun () ->
        observe t (Clock.elapsed_since start);
        trace_end t.t_name)
      f
  end

let instant name args =
  match !tracer with
  | Some tr when not !(Domain.DLS.get quiet_key) -> tr.on_instant name args
  | _ -> ()

(* --- spans --- *)

(* One span stack per domain: a worker's spans nest under its own paths
   without racing the main domain's stack. *)
let spans_key : string list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let spans () = Domain.DLS.get spans_key

let span_stack () = !(spans ())

let with_span ?(args = no_args) name f =
  if not !hot then f ()
  else begin
    let spans = spans () in
    spans := name :: !spans;
    let path = String.concat "/" (List.rev !spans) in
    let t = timer ("span:" ^ path) in
    trace_begin name args;
    let start = Clock.now () in
    Fun.protect
      ~finally:(fun () ->
        observe t (Clock.elapsed_since start);
        trace_end name;
        match !spans with
        | _ :: rest -> spans := rest
        | [] -> ())
      f
  end

(* --- reading --- *)

let counter_value c = Atomic.get c.c_value

let gauge_value g = Atomic.get g.g_value

type timer_stats = {
  count : int;
  sum : float;
  max : float;
  buckets : (float * int) list;
}

let timer_stats t =
  (* Buckets first, then sum and max (the reverse of [observe]'s order).
     [count] is derived from the bucket copy rather than kept apart, so a
     snapshot's _count always equals its +Inf bucket however concurrent
     recorders interleave with the read. *)
  let counts = Array.map Atomic.get t.t_buckets in
  let sum_ns = Atomic.get t.t_sum_ns in
  let max_ns = Atomic.get t.t_max_ns in
  { count = Array.fold_left ( + ) 0 counts;
    sum = Float.of_int sum_ns /. 1e9;
    max = Float.of_int max_ns /. 1e9;
    buckets = List.init n_buckets (fun i -> (bucket_bounds.(i), counts.(i))) }

type snapshot = {
  counters : (string * int) list;
  gauges : (string * float) list;
  timers : (string * timer_stats) list;
}

let snapshot () =
  let counters = ref [] and gauges = ref [] and timers = ref [] in
  locked (fun () ->
      Hashtbl.iter
        (fun _ metric ->
          match metric with
          | Counter c -> counters := (c.c_name, counter_value c) :: !counters
          | Gauge g ->
            Option.iter
              (fun v -> gauges := (g.g_name, v) :: !gauges)
              (gauge_value g)
          | Timer t -> timers := (t.t_name, timer_stats t) :: !timers)
        registry);
  let by_name (a, _) (b, _) = compare a b in
  { counters = List.sort by_name !counters;
    gauges = List.sort by_name !gauges;
    timers = List.sort by_name !timers }

let cells_snapshot ~counters ~timers =
  { counters = List.map (fun c -> (c.c_name, counter_value c)) counters;
    gauges = [];
    timers = List.map (fun t -> (t.t_name, timer_stats t)) timers }

let reset () =
  (* Also unwind the open-span stack: a [reset] inside a [with_span] must
     not leave stale entries that would corrupt the [/]-joined paths of
     every span opened afterwards. The enclosing spans' unwind handlers
     tolerate the empty stack. (Only the calling domain's stack — worker
     domains each own theirs, and resets happen between parallel phases.) *)
  spans () := [];
  locked (fun () ->
      Hashtbl.iter
        (fun _ metric ->
          match metric with
          | Counter c -> Atomic.set c.c_value 0
          | Gauge g -> Atomic.set g.g_value None
          | Timer t ->
            Array.iter (fun b -> Atomic.set b 0) t.t_buckets;
            Atomic.set t.t_sum_ns 0;
            Atomic.set t.t_max_ns 0)
        registry)

(* --- JSON --- *)

(* Wolves_cli.Json lives above this library in the dependency order (the CLI
   depends on core which depends on us), so the emitter is inlined: the
   grammar here is tiny and the names are our own. *)

let escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let snapshot_to_json snap =
  let buf = Buffer.create 1024 in
  let field first key emit_value =
    if not !first then Buffer.add_string buf ",";
    first := false;
    Buffer.add_string buf (Printf.sprintf "\"%s\":" (escape key));
    emit_value ()
  in
  let obj entries emit_one =
    Buffer.add_char buf '{';
    let first = ref true in
    List.iter (fun (key, v) -> field first key (fun () -> emit_one v)) entries;
    Buffer.add_char buf '}'
  in
  let num f =
    if Float.is_finite f then Buffer.add_string buf (Printf.sprintf "%.12g" f)
    else Buffer.add_string buf "null"
  in
  Buffer.add_char buf '{';
  let first = ref true in
  field first "bucket_bounds_s" (fun () ->
      (* The shared log-scale bounds, once, so consumers of the per-timer
         bucket maps don't have to re-derive the scale. The unbounded last
         bucket renders as null (JSON has no infinity); it matches the
         "inf" key used in the per-timer maps. *)
      Buffer.add_char buf '[';
      Array.iteri
        (fun i bound ->
          if i > 0 then Buffer.add_char buf ',';
          num bound)
        bucket_bounds;
      Buffer.add_char buf ']');
  field first "counters" (fun () ->
      obj snap.counters (fun v -> Buffer.add_string buf (string_of_int v)));
  field first "gauges" (fun () -> obj snap.gauges num);
  field first "timers" (fun () ->
      obj snap.timers (fun stats ->
          Buffer.add_char buf '{';
          let f = ref true in
          field f "count" (fun () ->
              Buffer.add_string buf (string_of_int stats.count));
          field f "sum_s" (fun () -> num stats.sum);
          field f "max_s" (fun () -> num stats.max);
          field f "buckets" (fun () ->
              obj
                (List.filter_map
                   (fun (bound, n) ->
                     if n = 0 then None
                     else
                       Some
                         ( (if Float.is_finite bound then
                              Printf.sprintf "%.12g" bound
                            else "inf"),
                           n ))
                   stats.buckets)
                (fun n -> Buffer.add_string buf (string_of_int n)));
          Buffer.add_char buf '}'));
  Buffer.add_char buf '}';
  Buffer.contents buf

let dump_json () = snapshot_to_json (snapshot ())
