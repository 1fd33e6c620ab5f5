(* The benchmark's OCaml side, driven by run.py. Subcommands:

     gen     --workload W --seed N --dir D [--requests R]
     batch   --workload W --dir D --passes P --trace 0|1 --out F
     client  --socket S --dir D --count N --out F
     replay  --dir D --samples F --out G
     version

   [gen] writes the seeded corpus (and, for serve-mixed, the request
   script) as plain documents: the programs under test only ever see those
   files. [batch] runs one batch workload over them in a process of its
   own; [client] is the closed-loop load generator for [wolves serve];
   [replay] answers the client's sampled requests with [Service.handle] on
   an in-process copy of the corpus, for the byte-identity check and the
   server's per-layer timings. Every timing is taken around a public
   library call from here; nothing inside the library is instrumented. *)

open Wolves_workflow
module Reach = Wolves_graph.Reach
module Soundness = Wolves_core.Soundness
module Corrector = Wolves_core.Corrector
module Generate = Wolves_workload.Generate
module Templates = Wolves_workload.Templates
module Views = Wolves_workload.Views
module Wfdsl = Wolves_lang.Wfdsl
module Moml = Wolves_moml.Moml
module Query = Wolves_query.Query
module Protocol = Wolves_server.Protocol
module Service = Wolves_server.Service
module Clock = Wolves_obs.Clock
module Frame = Wbench_frame
module J = Wolves_cli.Json

let now_ns () = Int64.to_int (Clock.now_ns ())
let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> output_string oc s)

let read_lines path =
  String.split_on_char '\n' (read_file path) |> List.filter (( <> ) "")

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("wbench: " ^ s); exit 2) fmt

let write_json path j = write_file path (J.to_string ~pretty:false j)
let ints xs = J.List (List.map (fun i -> J.Int i) xs)

(* ------------------------------------------------------------------ *)
(* Corpora                                                             *)
(* ------------------------------------------------------------------ *)

(* Sizes and counts are fixed; the seed only picks the random graphs and
   partitions, so every seed asks for about the same amount of work. A
   series-parallel closure varies several-fold between seeds at one size,
   so every family is audited as several workflows whose sum varies
   little. *)
let audit_workflows =
  [ (Generate.Layered, [ 2000; 3000; 4000; 4000 ]);
    (Generate.Erdos_renyi, [ 2000; 3000; 4000; 4000 ]);
    (Generate.Series_parallel, [ 2000; 2000; 3000; 3000 ]);
    (Generate.Pipeline, [ 2000; 3000; 4000; 4000 ]) ]
let correct_scales = [ 6; 10; 14; 20; 24 ]
(* 20 template views, 160 random and 840 perturbed ones: 1020 views, so a
   p99 over them has ten beyond it *)
let correct_random = 40 (* random partitions per family *)
let correct_perturbed = 210 (* perturbed connected-group views per family *)
let serve_scales = [ 4; 8; 16 ]
let serve_sizes = [ 50; 50; 50; 100; 100; 100; 200; 200; 200; 400; 400; 400 ]
let serve_big =
  [ (Generate.Layered, 5000); (Generate.Pipeline, 3000); (Generate.Erdos_renyi, 2000) ]

let families = List.mapi (fun i f -> (i, f)) Generate.all_families

let write_corpus dir docs =
  let files =
    List.mapi
      (fun i (id, view) ->
        (* alternate the two document formats *)
        if i mod 2 = 0 then begin
          write_file (Filename.concat dir (id ^ ".wf")) (Wfdsl.to_string view);
          id ^ ".wf"
        end
        else begin
          write_file (Filename.concat dir (id ^ ".moml")) (Moml.to_string view);
          id ^ ".moml"
        end)
      docs
  in
  write_file (Filename.concat dir "manifest.txt") (String.concat "\n" files ^ "\n")

let audit_corpus seed =
  List.concat
    (List.mapi
       (fun fi (fam, sizes) ->
         List.mapi
           (fun si size ->
             let s = (seed * 100) + (fi * 10) + si in
             let spec = Generate.generate fam ~seed:s ~size in
             ( Printf.sprintf "%s-%d-%d" (Generate.family_name fam) size si,
               Views.build ~seed:s (Views.Connected_groups 8) spec ))
           sizes)
       audit_workflows)

let template_views scales =
  List.concat_map
    (fun suite ->
      List.map
        (fun scale ->
          let spec = Templates.generate suite ~scale in
          ( Printf.sprintf "%s-%d" (Templates.suite_name suite) scale,
            Templates.natural_view suite spec ))
        scales)
    Templates.all_suites

let correct_corpus seed =
  let views kind count build =
    List.concat_map
      (fun (fi, fam) ->
        List.init count (fun k ->
            let s = (seed * 10_000) + (fi * 1000) + k in
            let spec = Generate.generate fam ~seed:s ~size:120 in
            (Printf.sprintf "%s-%s-%d" kind (Generate.family_name fam) k, build s spec)))
      families
  in
  template_views correct_scales
  @ views "random" correct_random (fun s spec ->
        Views.build ~seed:s (Views.Random_partition 8) spec)
  @ views "perturbed" correct_perturbed (fun s spec ->
        Views.inject_unsoundness ~seed:s ~attempts:40
          (Views.build ~seed:s (Views.Connected_groups 8) spec))

let serve_corpus seed =
  let small =
    List.concat_map
      (fun (fi, fam) ->
        List.mapi
          (fun si size ->
            let s = (seed * 100) + (fi * 10) + si in
            let spec = Generate.generate fam ~seed:s ~size in
            ( Printf.sprintf "%s-%d-%d" (Generate.family_name fam) size si,
              Views.build ~seed:s (Views.Connected_groups 6) spec ))
          serve_sizes)
      families
  in
  let big =
    List.mapi
      (fun i (fam, size) ->
        let s = (seed * 100) + 90 + i in
        let spec = Generate.generate fam ~seed:s ~size in
        ( Printf.sprintf "big-%s-%d" (Generate.family_name fam) size,
          Views.build ~seed:s (Views.Connected_groups 8) spec ))
      serve_big
  in
  (template_views serve_scales @ small, big)

(* The serve-mixed request script. Every request class stays well under
   10 ms in its handler, so the tail belongs to the server path. No
   [CORRECT ... DEADLINE]: its answer depends on the wall clock. The
   costlier verbs target the small templates, whose shape does not depend
   on the seed, so that each seed asks for about the same work. *)
let serve_script seed small n =
  let rng = Random.State.make [| seed; 0x5e12e |] in
  let small = Array.of_list small in
  let templates =
    [| "montage-4"; "montage-8"; "cybershake-4"; "epigenomics-4"; "ligo-4"; "ligo-8" |]
  in
  let pick a = a.(Random.State.int rng (Array.length a)) in
  let task view =
    let spec = View.spec view in
    Spec.task_name spec (Random.State.int rng (Spec.n_tasks spec))
  in
  List.init n (fun _ ->
      let r = Random.State.int rng 100 in
      if r < 42 then Printf.sprintf "VALIDATE %s" (fst (pick small))
      else if r < 84 then begin
        let id, view = pick small in
        let t = task view in
        match Random.State.int rng 3 with
        | 0 -> Printf.sprintf "QUERY %s ancestors('%s') & sources" id t
        | 1 -> Printf.sprintf "QUERY %s descendants('%s') & sinks" id t
        | _ -> Printf.sprintf "QUERY %s producers('%s') | consumers('%s')" id t t
      end
      else if r < 91 then Printf.sprintf "CORRECT %s weak" (pick templates)
      else if r < 96 then Printf.sprintf "CORRECT %s strong" (pick templates)
      else if r < 98 then Printf.sprintf "LINT %s" (pick templates)
      else Printf.sprintf "ANALYZE %s" (pick templates))

let gen ~workload ~seed ~dir ~requests =
  match workload with
  | "audit-large" -> write_corpus dir (audit_corpus seed)
  | "correct-small" -> write_corpus dir (correct_corpus seed)
  | "serve-mixed" ->
      let small, big = serve_corpus seed in
      write_corpus dir (small @ big);
      write_file (Filename.concat dir "tasks.txt")
        (String.concat ""
           (List.map
              (fun (id, v) -> Printf.sprintf "%s %d\n" id (Spec.n_tasks (View.spec v)))
              (small @ big)));
      write_file (Filename.concat dir "requests.txt")
        (String.concat "\n" (serve_script seed small requests) ^ "\n")
  | w -> die "unknown workload %s" w

let parse_doc file text =
  let r =
    if Filename.check_suffix file ".wf" then
      Result.map_error (Format.asprintf "%a" Wfdsl.pp_error) (Wfdsl.of_string text)
    else Result.map_error (Format.asprintf "%a" Moml.pp_error) (Moml.of_string text)
  in
  match r with Ok (_, view) -> view | Error msg -> die "%s: %s" file msg

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

type span = { idx : int; name : string; t0 : int; t1 : int; parent : int; id : int }

type tracer = {
  mutable spans : span list;
  mutable stack : int list;
  mutable next : int;
  words : (string, float) Hashtbl.t;  (* minor words allocated per span name *)
}

let new_tracer () = { spans = []; stack = []; next = 0; words = Hashtbl.create 16 }

(* [with_span tr name id f] runs [f]; under a tracer it also records the
   span and the minor words allocated inside it. *)
let with_span tr name id f =
  match tr with
  | None -> f ()
  | Some tr ->
      let idx = tr.next in
      tr.next <- idx + 1;
      let parent = match tr.stack with p :: _ -> p | [] -> -1 in
      tr.stack <- idx :: tr.stack;
      let w0 = Gc.minor_words () in
      let t0 = now_ns () in
      let r = f () in
      let t1 = now_ns () in
      let w = Gc.minor_words () -. w0 in
      tr.stack <- List.tl tr.stack;
      tr.spans <- { idx; name; t0; t1; parent; id } :: tr.spans;
      let prev = Option.value ~default:0. (Hashtbl.find_opt tr.words name) in
      Hashtbl.replace tr.words name (prev +. w);
      r

let spans_json tr =
  J.List
    (List.rev_map
       (fun s ->
         J.List
           [ J.Int s.idx; J.String s.name; J.Int s.t0; J.Int s.t1; J.Int s.parent; J.Int s.id ])
       tr.spans)

let sorted_obj tbl f =
  J.Obj (Hashtbl.fold (fun k v acc -> (k, f v) :: acc) tbl [] |> List.sort compare)

let words_json tr = sorted_obj tr.words (fun w -> J.Float w)

(* ------------------------------------------------------------------ *)
(* Batch workloads                                                     *)
(* ------------------------------------------------------------------ *)

type counts = {
  mutable checks : int;
  mutable probes : int;
  mutable certified : int;
  mutable closure_pairs : int;
  mutable unsound : int;
  mutable query_tasks : int;
  mutable attempted : int;
  mutable failures : int;
  digest : Buffer.t;  (* parts of every corrected composite *)
}

let new_counts () =
  { checks = 0; probes = 0; certified = 0; closure_pairs = 0; unsound = 0;
    query_tasks = 0; attempted = 0; failures = 0; digest = Buffer.create 4096 }

let account c view outcomes =
  List.iter
    (fun (comp, (o : Corrector.outcome)) ->
      c.checks <- c.checks + o.checks;
      c.probes <- c.probes + o.probes;
      if o.certified_strong then c.certified <- c.certified + 1;
      Buffer.add_string c.digest (View.composite_name view comp);
      List.iter
        (fun part ->
          Buffer.add_char c.digest '[';
          List.iter (fun t -> Buffer.add_string c.digest (string_of_int t ^ ",")) part;
          Buffer.add_char c.digest ']')
        o.parts)
    outcomes

(* Correct, then re-verify: a corrected view that is not sound is a failed
   output check. *)
let correct_and_verify tr c id criterion view =
  c.attempted <- c.attempted + 1;
  let corrected, outcomes =
    with_span tr "core.correct" id (fun () -> Corrector.correct criterion view)
  in
  account c view outcomes;
  let re = with_span tr "core.reverify" id (fun () -> Soundness.validate corrected) in
  if re.Soundness.unsound <> [] then c.failures <- c.failures + 1;
  corrected

let validate tr c id view =
  let report = with_span tr "core.validate" id (fun () -> Soundness.validate view) in
  c.unsound <- c.unsound + List.length report.Soundness.unsound

let closure tr id spec = with_span tr "graph.closure" id (fun () -> Spec.reach spec)

(* Provenance queries of one audited view: which inputs each of 48
   outputs depends on, and which outputs each of 48 inputs feeds, spread
   evenly over the sinks (sources), or over the last (first) tasks in
   topological order when a workflow has fewer than 48 sinks (sources). *)
let queries_per_end = 48

let audit_queries spec =
  let pick ends order =
    let a = Array.of_list (if List.length ends >= queries_per_end then ends else order) in
    let n = Array.length a in
    let k = min n queries_per_end in
    List.init k (fun i -> a.(i * n / k))
  in
  let order = Spec.topological_order spec in
  let sinks = List.filter (fun t -> Spec.consumers spec t = []) order in
  let sources = List.filter (fun t -> Spec.producers spec t = []) order in
  List.map
    (fun t -> Printf.sprintf "ancestors('%s') & sources" (Spec.task_name spec t))
    (pick sinks (List.rev order))
  @ List.map
      (fun t -> Printf.sprintf "descendants('%s') & sinks" (Spec.task_name spec t))
      (pick sources order)

(* One audit of a view; [query_ns] collects each provenance query's time. *)
let audit_view tr c query_ns id (view, queries) =
  let spec = View.spec view in
  with_span tr "view" id (fun () ->
      let reach = closure tr id spec in
      ignore (with_span tr "graph.view_closure" id (fun () -> View.view_reach view));
      validate tr c id view;
      let corrected = correct_and_verify tr c id Corrector.Weak view in
      ignore (with_span tr "graph.transpose" id (fun () -> Reach.ancestors reach 0));
      List.iter
        (fun q ->
          let t0 = now_ns () in
          c.attempted <- c.attempted + 1;
          (match with_span tr "query.eval" id (fun () -> Query.eval_names corrected q) with
          | Ok names -> c.query_tasks <- c.query_tasks + List.length names
          | Error _ -> c.failures <- c.failures + 1);
          query_ns := (now_ns () - t0) :: !query_ns)
        queries)

(* The demo's "Correct View" action. *)
let correct_view tr c _query_ns id (view, _) =
  with_span tr "view" id (fun () ->
      ignore (closure tr id (View.spec view));
      validate tr c id view;
      ignore (correct_and_verify tr c id Corrector.Strong view))

let batch ~workload ~dir ~passes ~trace ~out =
  let run_view, queries =
    match workload with
    | "audit-large" -> (audit_view, fun view -> audit_queries (View.spec view))
    | "correct-small" -> (correct_view, fun _ -> [])
    | w -> die "not a batch workload: %s" w
  in
  let files = Array.of_list (read_lines (Filename.concat dir "manifest.txt")) in
  (* Each pass starts from freshly read and parsed documents, with no index
     built yet; that set-up is timed on its own, once per pass. In a traced
     run every other pass is traced, so both kinds see the same machine. *)
  let run_pass k =
    let traced = trace && k mod 2 = 1 in
    let tr = if traced then Some (new_tracer ()) else None in
    let t0 = now_ns () in
    let texts = Array.map (fun f -> read_file (Filename.concat dir f)) files in
    let t1 = now_ns () in
    let w0 = Gc.minor_words () in
    let views = Array.mapi (fun i f -> parse_doc f texts.(i)) files in
    let parse_words = Gc.minor_words () -. w0 in
    let t2 = now_ns () in
    let views = Array.map (fun v -> (v, queries v)) views in
    let c = new_counts () and query_ns = ref [] in
    let gc_before = Gc.quick_stat () in
    let t3 = now_ns () in
    let view_ns =
      with_span tr "pass" k (fun () ->
          Array.mapi
            (fun i v ->
              let t0 = now_ns () in
              run_view tr c query_ns i v;
              now_ns () - t0)
            views)
    in
    let t4 = now_ns () in
    let gc_after = Gc.quick_stat () in
    Array.iter
      (fun (v, _) ->
        let pairs = Reach.n_closure_edges (Spec.reach (View.spec v)) in
        c.closure_pairs <- c.closure_pairs + pairs)
      views;
    let secs a b = J.Float (float (b - a) /. 1e9) in
    J.Obj
      ([ ("traced", J.Bool traced);
         ("setup_s", secs t0 t2);
         ("parse_s", secs t1 t2);
         ("parse_words", J.Float parse_words);
         ("bytes", J.Int (Array.fold_left (fun a s -> a + String.length s) 0 texts));
         ("elapsed_s", secs t3 t4);
         ("views", J.Int (Array.length views));
         ("tasks", J.Int (Array.fold_left (fun a (v, _) -> a + Spec.n_tasks (View.spec v)) 0 views));
         ("view_ns", ints (Array.to_list view_ns));
         ("query_ns", ints (List.rev !query_ns));
         ("digest", J.String (Digest.to_hex (Digest.string (Buffer.contents c.digest))));
         ( "counts",
           J.Obj
             [ ("core.checks", J.Int c.checks);
               ("core.probes", J.Int c.probes);
               ("core.certified", J.Int c.certified);
               ("core.unsound_composites", J.Int c.unsound);
               ("graph.closure_pairs", J.Int c.closure_pairs);
               ("query.result_tasks", J.Int c.query_tasks) ] );
         ("attempted", J.Int c.attempted);
         ("failures", J.Int c.failures);
         ( "major_collections",
           J.Int (gc_after.Gc.major_collections - gc_before.Gc.major_collections) ) ]
      @
      match tr with
      | None -> []
      | Some tr -> [ ("spans", spans_json tr); ("words", words_json tr) ])
  in
  let results = List.init (if trace then 2 * passes else passes) run_pass in
  write_json out (J.Obj [ ("passes", J.List results) ]);
  (* Hold the process open until run.py has read its peak RSS. *)
  print_endline "ready";
  (try ignore (In_channel.input_all stdin) with _ -> ())

(* ------------------------------------------------------------------ *)
(* Closed-loop client                                                  *)
(* ------------------------------------------------------------------ *)

let connections = 2
let session_requests = 50
let sample_every = 5

type conn = {
  frame : Frame.t;
  mutable fd : Unix.file_descr option;
  mutable next : int;  (* next script index this caller sends *)
  mutable in_session : int;
  mutable sent_at : int;
  mutable quitting : bool;
  mutable connect_at : int;
  mutable done_ : bool;
}

let client ~socket ~dir ~count ~out =
  let script = Array.of_list (read_lines (Filename.concat dir "requests.txt")) in
  let script = if count < Array.length script then Array.sub script 0 count else script in
  let n = Array.length script in
  let lat = Array.make n 0 and start = Array.make n 0 in
  let kinds = Array.make n ' ' in
  let samples = ref [] and connect_ns = ref [] in
  let transport_errors = ref 0 and quits = ref 0 in
  let chunk = Bytes.create 65536 in
  let send fd line =
    let s = Bytes.of_string (line ^ "\n") in
    let len = Bytes.length s in
    let rec go off = if off < len then go (off + Unix.write fd s off (len - off)) in
    go 0
  in
  let open_session c =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    c.connect_at <- now_ns ();
    Unix.connect fd (Unix.ADDR_UNIX socket);
    c.fd <- Some fd;
    c.in_session <- 0;
    c.sent_at <- now_ns ();
    send fd script.(c.next)
  in
  let conns =
    Array.init connections (fun cid ->
        { frame = Frame.create (); fd = None; next = cid; in_session = 0;
          sent_at = 0; quitting = false; connect_at = 0; done_ = cid >= n })
  in
  let t_begin = now_ns () in
  Array.iter (fun c -> if not c.done_ then open_session c) conns;
  let on_frame c (kind, raw) =
    let fd = Option.get c.fd in
    if c.quitting then begin
      incr quits;
      Unix.close fd;
      c.fd <- None;
      c.quitting <- false;
      if c.next >= n then c.done_ <- true else open_session c
    end
    else begin
      let t = now_ns () in
      let i = c.next in
      lat.(i) <- t - c.sent_at;
      start.(i) <- c.sent_at;
      kinds.(i) <-
        (match kind with
        | Frame.Ok_frame -> 'o'
        | Frame.Err_frame -> 'e'
        | Frame.Overloaded_frame -> 'x');
      if c.in_session = 0 then connect_ns := (t - c.connect_at) :: !connect_ns;
      if i mod sample_every = 0 then samples := (i, raw) :: !samples;
      c.in_session <- c.in_session + 1;
      c.next <- i + connections;
      if c.next >= n || c.in_session >= session_requests then begin
        c.quitting <- true;
        send fd "QUIT"
      end
      else begin
        c.sent_at <- now_ns ();
        send fd script.(c.next)
      end
    end
  in
  let active () =
    Array.to_list conns |> List.filter_map (fun c -> if c.done_ then None else c.fd)
  in
  let rec loop () =
    match active () with
    | [] -> ()
    | fds ->
        let ready, _, _ =
          try Unix.select fds [] [] 30.
          with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
        in
        if ready = [] then die "client: no reply within 30 s";
        List.iter
          (fun fd ->
            let c = List.find (fun c -> c.fd = Some fd) (Array.to_list conns) in
            let got =
              try Unix.read fd chunk 0 (Bytes.length chunk) with Unix.Unix_error _ -> 0
            in
            if got = 0 then begin
              incr transport_errors;
              Unix.close fd;
              c.fd <- None;
              c.done_ <- true
            end
            else begin
              Frame.feed c.frame chunk 0 got;
              let rec drain () =
                match c.fd with
                | Some _ -> (
                    match Frame.next c.frame with
                    | Some f ->
                        on_frame c f;
                        drain ()
                    | None -> ())
                | None -> ()
              in
              drain ()
            end)
          ready;
        loop ()
  in
  loop ();
  let t_end = now_ns () in
  let b = Buffer.create (n * 24) in
  Buffer.add_string b
    (Printf.sprintf "elapsed_ns %d\ntransport_errors %d\nquits %d\n" (t_end - t_begin)
       !transport_errors !quits);
  List.iter (fun ns -> Buffer.add_string b (Printf.sprintf "connect %d\n" ns)) !connect_ns;
  Array.iteri
    (fun i l ->
      Buffer.add_string b (Printf.sprintf "r %d %c %d %d\n" i kinds.(i) l start.(i)))
    lat;
  write_file out (Buffer.contents b);
  let sb = Buffer.create 65536 in
  List.iter
    (fun (i, raw) ->
      Buffer.add_string sb (Printf.sprintf "%d %d\n" i (String.length raw));
      Buffer.add_string sb raw)
    (List.rev !samples);
  write_file (out ^ ".samples") (Buffer.contents sb)

(* ------------------------------------------------------------------ *)
(* In-process replay of the served requests                            *)
(* ------------------------------------------------------------------ *)

let time_ns f =
  let t0 = now_ns () in
  let r = f () in
  (r, now_ns () - t0)

let replay ~dir ~samples ~out =
  let files = read_lines (Filename.concat dir "manifest.txt") in
  (* The server's start-up work, layer by layer, in the order Service.load
     pins it; Service.load then finds every index already built. *)
  let layer = Hashtbl.create 8 and words = Hashtbl.create 8 in
  let add k ns =
    Hashtbl.replace layer k (ns + Option.value ~default:0 (Hashtbl.find_opt layer k))
  in
  let timed k f =
    let w0 = Gc.minor_words () in
    let r, ns = time_ns f in
    add k ns;
    let w = Gc.minor_words () -. w0 in
    Hashtbl.replace words k (w +. Option.value ~default:0. (Hashtbl.find_opt words k));
    r
  in
  let bytes = ref 0 in
  let entries =
    List.map
      (fun f ->
        let text = read_file (Filename.concat dir f) in
        bytes := !bytes + String.length text;
        let view = timed "lang.parse" (fun () -> parse_doc f text) in
        let spec = View.spec view in
        let reach = timed "graph.closure" (fun () -> Spec.reach spec) in
        add "graph.closure_pairs" (Reach.n_closure_edges reach);
        ignore (timed "graph.labels" (fun () -> Spec.labels spec));
        ignore (timed "graph.transpose" (fun () -> Reach.ancestors reach 0));
        ignore (timed "graph.view_closure" (fun () -> View.view_reach view));
        (Filename.remove_extension f, view))
      files
  in
  let service = Service.load entries in
  let script = Array.of_list (read_lines (Filename.concat dir "requests.txt")) in
  let data = read_file samples in
  let rec parse_samples pos acc =
    if pos >= String.length data then List.rev acc
    else
      let nl = String.index_from data pos '\n' in
      let i, len =
        Scanf.sscanf (String.sub data pos (nl - pos)) "%d %d" (fun a b -> (a, b))
      in
      parse_samples (nl + 1 + len) ((i, String.sub data (nl + 1) len) :: acc)
  in
  let mismatches = ref 0 in
  let rows =
    List.map
      (fun (i, wire) ->
        let line = script.(i) in
        let parsed, parse_ns = time_ns (fun () -> Protocol.parse line) in
        let request =
          match parsed with Ok r -> r | Error _ -> die "unparsable script line %d" i
        in
        let w0 = Gc.minor_words () in
        let reply, handle_ns = time_ns (fun () -> Service.handle service request) in
        let words = Gc.minor_words () -. w0 in
        let rendered, render_ns = time_ns (fun () -> Protocol.render reply) in
        if rendered <> wire then incr mismatches;
        J.List
          [ J.Int i; J.String (Protocol.kind request); J.Int parse_ns; J.Int handle_ns;
            J.Int render_ns; J.Float words ])
      (parse_samples 0 [])
  in
  write_json out
    (J.Obj
       [ ("setup_ns", sorted_obj layer (fun ns -> J.Int ns));
         ("setup_words", sorted_obj words (fun w -> J.Float w));
         ("bytes", J.Int !bytes);
         ("mismatches", J.Int !mismatches);
         ("rows", List rows) ])

(* ------------------------------------------------------------------ *)

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let cmd, rest = match args with c :: r -> (c, r) | [] -> die "missing subcommand" in
  let rec opts acc = function
    | k :: v :: r when String.starts_with ~prefix:"--" k -> opts ((k, v) :: acc) r
    | [] -> acc
    | x :: _ -> die "unexpected argument %s" x
  in
  let opts = opts [] rest in
  let get k =
    match List.assoc_opt ("--" ^ k) opts with Some v -> v | None -> die "missing --%s" k
  in
  let int k =
    match int_of_string_opt (get k) with Some i -> i | None -> die "--%s: not an integer" k
  in
  match cmd with
  | "gen" ->
      let requests = if List.mem_assoc "--requests" opts then int "requests" else 0 in
      gen ~workload:(get "workload") ~seed:(int "seed") ~dir:(get "dir") ~requests
  | "batch" ->
      batch ~workload:(get "workload") ~dir:(get "dir") ~passes:(int "passes")
        ~trace:(int "trace" = 1) ~out:(get "out")
  | "client" ->
      client ~socket:(get "socket") ~dir:(get "dir") ~count:(int "count") ~out:(get "out")
  | "version" -> print_endline Sys.ocaml_version
  | "replay" -> replay ~dir:(get "dir") ~samples:(get "samples") ~out:(get "out")
  | c -> die "unknown subcommand %s" c
