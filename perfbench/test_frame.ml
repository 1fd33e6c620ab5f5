(* The client's reply-frame reader must reassemble replies however the
   socket splits them. *)

module Frame = Wbench_frame
module Protocol = Wolves_server.Protocol

let replies =
  [ Protocol.Ok_lines [ "pong" ];
    Protocol.Ok_lines [];
    Protocol.Err ("unknown-id", "no workflow x loaded (try LIST)");
    Protocol.Ok_lines
      [ "workflow w"; "composites 3"; "sound false"; "unsound C1 witnesses 2" ];
    Protocol.Overloaded 100;
    Protocol.Ok_lines (List.init 40 (fun i -> Printf.sprintf "t%d" i)) ]

let kind_of = function
  | Protocol.Ok_lines _ -> Frame.Ok_frame
  | Protocol.Err _ -> Frame.Err_frame
  | Protocol.Overloaded _ -> Frame.Overloaded_frame

let expected = List.map (fun r -> (kind_of r, Protocol.render r)) replies
let stream = String.concat "" (List.map snd expected)

(* Feed [stream] in the given chunk lengths, collecting frames as they
   complete. *)
let frames_of_chunks lengths =
  let t = Frame.create () in
  let out = ref [] in
  let rec drain () =
    match Frame.next t with
    | Some f ->
        out := f :: !out;
        drain ()
    | None -> ()
  in
  let pos = ref 0 in
  List.iter
    (fun len ->
      Frame.feed t (Bytes.of_string stream) !pos len;
      pos := !pos + len;
      drain ())
    lengths;
  List.rev !out

let check name lengths =
  if frames_of_chunks lengths <> expected then begin
    Printf.eprintf "FAIL %s\n" name;
    exit 1
  end

let () =
  let n = String.length stream in
  check "whole" [ n ];
  check "bytewise" (List.init n (fun _ -> 1));
  (* every single split point *)
  for cut = 1 to n - 1 do
    check (Printf.sprintf "cut %d" cut) [ cut; n - cut ]
  done;
  (* random chunkings *)
  let rng = Random.State.make [| 7 |] in
  for trial = 1 to 200 do
    let rec chunks left =
      if left = 0 then []
      else
        let k = 1 + Random.State.int rng (min left 23) in
        k :: chunks (left - k)
    in
    check (Printf.sprintf "random %d" trial) (chunks n)
  done;
  (* a header that is not a reply frame is rejected *)
  let t = Frame.create () in
  Frame.feed t (Bytes.of_string "HELLO\n") 0 6;
  (match Frame.next t with
  | exception Frame.Bad_frame _ -> ()
  | _ ->
      prerr_endline "FAIL bad header accepted";
      exit 1);
  print_endline "test_frame: ok"
