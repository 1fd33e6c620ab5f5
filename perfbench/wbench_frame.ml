(* Incremental reader for the server's reply frames ([OK <n>] plus n
   payload lines, or a single [ERR ...] / [OVERLOADED ...] line), fed with
   whatever chunks a non-blocking read returns. *)

type kind = Ok_frame | Err_frame | Overloaded_frame

type t = {
  buf : Buffer.t;
  mutable start : int;  (* first byte of the frame being assembled *)
  mutable line : int;  (* first byte of the line being assembled *)
  mutable scan : int;  (* next byte not yet searched for a newline *)
  mutable kind : kind option;  (* known once the header line is complete *)
  mutable remaining : int;  (* payload lines still missing *)
}

exception Bad_frame of string

let create () =
  { buf = Buffer.create 4096; start = 0; line = 0; scan = 0; kind = None; remaining = 0 }

let feed t bytes off len = Buffer.add_subbytes t.buf bytes off len

let header line =
  let word, rest =
    match String.index_opt line ' ' with
    | Some i -> (String.sub line 0 i, String.sub line (i + 1) (String.length line - i - 1))
    | None -> (line, "")
  in
  match word with
  | "OK" -> (
      match int_of_string_opt rest with
      | Some n when n >= 0 -> (Ok_frame, n)
      | _ -> raise (Bad_frame ("bad OK header: " ^ line)))
  | "ERR" -> (Err_frame, 0)
  | "OVERLOADED" -> (Overloaded_frame, 0)
  | _ -> raise (Bad_frame ("unknown reply header: " ^ line))

(* The next complete frame, with its raw bytes, or [None] until more input
   arrives. Consumed bytes are dropped once the buffer is fully drained or
   more than 64 KiB of it has been consumed. *)
let next t =
  let rec go () =
    let len = Buffer.length t.buf in
    let rec find i =
      if i >= len then None
      else if Buffer.nth t.buf i = '\n' then Some i
      else find (i + 1)
    in
    match find t.scan with
    | None ->
        t.scan <- len;
        None
    | Some nl -> (
        let line_start = t.line in
        t.scan <- nl + 1;
        t.line <- nl + 1;
        (match t.kind with
        | None ->
            let k, n = header (Buffer.sub t.buf line_start (nl - line_start)) in
            t.kind <- Some k;
            t.remaining <- n
        | Some _ -> t.remaining <- t.remaining - 1);
        match t.kind with
        | Some k when t.remaining = 0 ->
            let raw = Buffer.sub t.buf t.start (t.scan - t.start) in
            t.kind <- None;
            if t.scan = Buffer.length t.buf then begin
              Buffer.clear t.buf;
              t.start <- 0;
              t.line <- 0;
              t.scan <- 0
            end
            else if t.scan > 65536 then begin
              let rest = Buffer.sub t.buf t.scan (Buffer.length t.buf - t.scan) in
              Buffer.clear t.buf;
              Buffer.add_string t.buf rest;
              t.start <- 0;
              t.line <- 0;
              t.scan <- 0
            end
            else t.start <- t.scan;
            Some (k, raw)
        | _ -> go ())
  in
  go ()
