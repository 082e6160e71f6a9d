module J = Dls_util.Json
module Wal = Dls_util.Wal

let ( let* ) = Result.bind

type t = {
  path : string;
  oc : out_channel;
  fingerprint : string;
  mutable seq : int;  (* next sequence number to append *)
}

let record_to_line ~seq m =
  match Protocol.mutation_to_json m with
  | J.Obj fields ->
    J.to_string (J.Obj (("seq", J.Num (float_of_int seq)) :: fields))
  | j -> J.to_string j

let record_of_line line =
  let* j = J.of_string line in
  let* seq = J.field "seq" J.to_int j in
  let* m = Protocol.mutation_of_json j in
  Ok (seq, m)

(* The manifest pins the nominal platform: the WAL encodes deltas
   relative to it, so replaying onto another platform is refused. *)
let identity fingerprint =
  [ ("daemon_wal", J.Num 1.0); ("platform", J.Str fingerprint) ]

let write_manifest t =
  Wal.write_manifest ~path:(Wal.manifest_path t.path)
    (identity t.fingerprint @ [ ("entries", J.Num (float_of_int t.seq)) ])

let open_ ~path ~platform =
  let state = State.create platform in
  let fingerprint = State.fingerprint state in
  let* () =
    Wal.check_manifest ~path:(Wal.manifest_path path) ~what:"platform"
      (identity fingerprint)
  in
  let* replayed =
    if Sys.file_exists path then begin
      let* entries, valid_len = Wal.load ~of_line:record_of_line ~path in
      let dropped = Wal.truncate_torn ~path ~valid_len in
      if dropped > 0 then
        Logs.warn (fun m ->
            m "daemon journal: dropping %d torn trailing bytes of %s" dropped
              path);
      Ok entries
    end
    else Ok []
  in
  let* () =
    List.fold_left
      (fun acc (seq, m) ->
        let* () = acc in
        if seq <> State.seq state then
          Error
            (Printf.sprintf
               "%s: journal sequence gap (record %d where %d expected)" path
               seq (State.seq state))
        else
          Result.map_error
            (fun e ->
              Printf.sprintf "%s: replayed mutation %d rejected: %s" path seq
                e)
            (State.apply state m))
      (Ok ()) replayed
  in
  let t = { path; oc = Wal.open_append ~path; fingerprint; seq = State.seq state } in
  write_manifest t;
  Ok (state, t)

let append t m =
  Wal.append_line t.oc (record_to_line ~seq:t.seq m);
  t.seq <- t.seq + 1;
  write_manifest t

let entries t = t.seq

let close t = close_out_noerr t.oc
