let version = 2

exception Corrupt of string

let () =
  Printexc.register_printer (function
    | Corrupt msg -> Some (Printf.sprintf "Checkpoint.Corrupt %S" msg)
    | _ -> None)

let header ~tag ~crc ~length =
  Printf.sprintf "ACCALS-CKPT %d %s crc=%s len=%d" version tag
    (Crc32.to_hex crc) length

let rotated path i = if i = 0 then path else Printf.sprintf "%s.%d" path i

(* Shift [path] -> [path.1] -> ... -> [path.(keep-1)], dropping the oldest.
   Renames are atomic, and a crash mid-shift at worst duplicates one
   generation — it never produces a torn file. *)
let rotate ~path ~keep =
  if keep > 1 && Sys.file_exists path then
    for i = keep - 2 downto 0 do
      let src = rotated path i in
      if Sys.file_exists src then Sys.rename src (rotated path (i + 1))
    done

(* All durable I/O goes through Fault so chaos runs can make precisely
   the Nth open/write/fsync/rename observe ENOSPC, EMFILE or a torn write.
   With no spec armed these are the plain stdlib calls. *)
let save ?(keep = 1) ~path ~tag v =
  let payload = Marshal.to_bytes v [] in
  let crc = Crc32.digest_bytes payload in
  let tmp = Printf.sprintf "%s.tmp.%d" path (Unix.getpid ()) in
  let oc = Fault.open_out_bin tmp in
  (try
     Fault.output_string oc (header ~tag ~crc ~length:(Bytes.length payload));
     output_char oc '\n';
     Fault.output_bytes oc payload;
     flush oc;
     (* Land the bytes before the rename makes them the checkpoint. *)
     Fault.fsync (Unix.descr_of_out_channel oc)
   with e ->
     close_out_noerr oc;
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  close_out oc;
  rotate ~path ~keep;
  (try Fault.rename tmp path
   with e ->
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  let module T = Accals_telemetry.Telemetry in
  T.count "accals_checkpoint_saves_total"
    ~help:"Checkpoints written (including rotations)" 1;
  T.count "accals_checkpoint_bytes_total"
    ~help:"Marshalled checkpoint payload bytes written"
    (Bytes.length payload);
  T.instant ~cat:"checkpoint"
    ~args:
      [
        ("tag", Accals_telemetry.Json.String tag);
        ("bytes", Accals_telemetry.Json.Int (Bytes.length payload));
      ]
    "checkpoint.save"

let parse_header path line =
  match String.split_on_char ' ' line with
  | [ "ACCALS-CKPT"; v; tag; crc; len ] ->
    let v =
      match int_of_string_opt v with
      | Some v -> v
      | None -> raise (Corrupt (path ^ ": malformed header version"))
    in
    let crc =
      match
        if String.length crc > 4 && String.sub crc 0 4 = "crc=" then
          int_of_string_opt ("0x" ^ String.sub crc 4 (String.length crc - 4))
        else None
      with
      | Some c -> c
      | None -> raise (Corrupt (path ^ ": malformed header crc"))
    in
    let len =
      match
        if String.length len > 4 && String.sub len 0 4 = "len=" then
          int_of_string_opt (String.sub len 4 (String.length len - 4))
        else None
      with
      | Some l when l >= 0 -> l
      | _ -> raise (Corrupt (path ^ ": malformed header length"))
    in
    (v, tag, crc, len)
  | _ ->
    raise (Corrupt (Printf.sprintf "%s: bad checkpoint header %S" path line))

let load ~path ~tag =
  if not (Sys.file_exists path) then None
  else begin
    let ic = open_in_bin path in
    Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
    let line =
      try input_line ic
      with End_of_file -> raise (Corrupt (path ^ ": empty checkpoint"))
    in
    let file_version, file_tag, crc, length = parse_header path line in
    if file_version <> version then
      raise
        (Corrupt
           (Printf.sprintf "%s: checkpoint version %d (want %d)" path
              file_version version));
    if file_tag <> tag then
      raise
        (Corrupt
           (Printf.sprintf "%s: checkpoint tag %S (want %S)" path file_tag tag));
    let total = in_channel_length ic in
    if total - pos_in ic <> length then
      raise
        (Corrupt
           (Printf.sprintf "%s: payload is %d bytes, header says %d" path
              (total - pos_in ic) length));
    let payload = Bytes.create length in
    (try really_input ic payload 0 length
     with End_of_file -> raise (Corrupt (path ^ ": truncated payload")));
    let actual = Crc32.digest_bytes payload in
    if actual <> crc then
      raise
        (Corrupt
           (Printf.sprintf "%s: payload crc %s, header says %s" path
              (Crc32.to_hex actual) (Crc32.to_hex crc)));
    (* The CRC matched, so Marshal sees exactly the bytes that were written;
       a decode failure past this point still surfaces as Corrupt. *)
    match Marshal.from_bytes payload 0 with
    | v -> Some v
    | exception (Failure _ | Invalid_argument _ | End_of_file) ->
      raise (Corrupt (path ^ ": undecodable payload"))
  end

(* Scan well past [keep] so that lowering --ckpt-keep between runs still
   finds older generations left on disk. *)
let max_scan = 64

let load_rotated ?(on_corrupt = fun ~path:_ _ -> ()) ~path ~tag ~keep () =
  let limit = max keep 1 in
  let rec scan i candidates =
    if i >= max_scan then (None, candidates)
    else begin
      let p = rotated path i in
      if not (Sys.file_exists p) then
        if i < limit then scan (i + 1) candidates else (None, candidates)
      else
        match load ~path:p ~tag with
        | Some v -> (Some (v, p), candidates + 1)
        | None -> scan (i + 1) candidates
        | exception Corrupt msg ->
          on_corrupt ~path:p msg;
          scan (i + 1) (candidates + 1)
    end
  in
  match scan 0 0 with
  | Some found, _ -> Some found
  | None, 0 -> None
  | None, n ->
    raise
      (Corrupt
         (Printf.sprintf "%s: no intact checkpoint among %d candidate file%s"
            path n
            (if n = 1 then "" else "s")))
