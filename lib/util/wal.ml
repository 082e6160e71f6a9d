let load ~of_line ~path =
  let content = In_channel.with_open_bin path In_channel.input_all in
  let len = String.length content in
  let rec go pos line_no acc =
    if pos >= len then Ok (List.rev acc, pos)
    else
      match String.index_from_opt content pos '\n' with
      | None ->
        (* Final line never got its newline: interrupted write. *)
        Ok (List.rev acc, pos)
      | Some nl -> (
        let line = String.sub content pos (nl - pos) in
        match of_line line with
        | Ok e -> go (nl + 1) (line_no + 1) (e :: acc)
        | Error msg ->
          if nl = len - 1 then
            (* Unparseable final line: also an interrupted write. *)
            Ok (List.rev acc, pos)
          else
            Error
              (Printf.sprintf "%s: corrupt entry at line %d: %s" path line_no
                 msg))
  in
  go 0 1 []

let truncate_torn ~path ~valid_len =
  let size = (Unix.stat path).Unix.st_size in
  if valid_len < size then begin
    Unix.truncate path valid_len;
    size - valid_len
  end
  else 0

let write_atomic ~path content =
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc content);
  Sys.rename tmp path

let manifest_path log = log ^ ".manifest"

let write_manifest ~path fields =
  write_atomic ~path (Json.to_string (Json.Obj fields) ^ "\n")

let check_manifest ~path ~what identity =
  if not (Sys.file_exists path) then Ok ()
  else
    let content = In_channel.with_open_bin path In_channel.input_all in
    match Json.of_string content with
    | Error e -> Error (Printf.sprintf "%s: unreadable manifest: %s" path e)
    | Ok recorded -> (
      match
        List.find_opt
          (fun (name, v) -> Json.member name recorded <> Some v)
          identity
      with
      | None -> Ok ()
      | Some (name, _) ->
        Error
          (Printf.sprintf
             "%s: belongs to a different %s (field %S differs); refusing to \
              resume"
             path what name))

let open_append ~path =
  open_out_gen [ Open_wronly; Open_append; Open_creat ] 0o644 path

let append_line oc line =
  if String.contains line '\n' then
    invalid_arg "Wal.append_line: record contains a newline";
  output_string oc line;
  output_char oc '\n';
  flush oc
