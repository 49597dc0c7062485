(* Uniform artifact-file output: create missing parents, report
   filesystem failures as clean one-line [Error]s instead of letting a
   [Sys_error] backtrace reach the user. *)

let rec mkdirs dir =
  if dir = "" || dir = "." || dir = "/" || Sys.file_exists dir then Ok ()
  else
    match mkdirs (Filename.dirname dir) with
    | Error _ as e -> e
    | Ok () -> (
        try
          Sys.mkdir dir 0o755;
          Ok ()
        with
        | Sys_error msg -> Error msg
        | Sys.Break as e -> raise e)

let with_out path f =
  match mkdirs (Filename.dirname path) with
  | Error msg -> Error (Printf.sprintf "cannot create %s: %s" path msg)
  | Ok () -> (
      match open_out path with
      | exception Sys_error msg -> Error msg
      | oc -> (
          match f oc with
          | () ->
              close_out oc;
              Ok ()
          | exception e ->
              close_out_noerr oc;
              (match e with
              | Sys_error msg ->
                  Error (Printf.sprintf "cannot write %s: %s" path msg)
              | e -> raise e)))
