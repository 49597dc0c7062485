type align = Left | Right

let pad align width s =
  let n = String.length s in
  if n >= width then s
  else
    let fill = String.make (width - n) ' ' in
    match align with Left -> s ^ fill | Right -> fill ^ s

let render ?align ~header rows =
  let ncols = List.length header in
  let normalize row =
    let n = List.length row in
    if n >= ncols then row
    else row @ List.init (ncols - n) (fun _ -> "")
  in
  let rows = List.map normalize rows in
  let aligns =
    match align with
    | Some a when List.length a = ncols -> a
    | Some _ | None -> List.mapi (fun i _ -> if i = 0 then Left else Right) header
  in
  let widths =
    List.mapi
      (fun i h ->
        List.fold_left
          (fun acc row -> max acc (String.length (List.nth row i)))
          (String.length h) rows)
      header
  in
  let line cells =
    let padded =
      List.mapi
        (fun i c -> pad (List.nth aligns i) (List.nth widths i) c)
        cells
    in
    String.concat "  " padded
  in
  let sep = String.concat "  " (List.map (fun w -> String.make w '-') widths) in
  String.concat "\n" (line header :: sep :: List.map line rows)

let print ?align ~header rows =
  print_string (render ?align ~header rows);
  print_newline ()

let fmt_f ?(dec = 2) v = Printf.sprintf "%.*f" dec v
