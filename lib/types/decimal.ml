let of_string_opt ~max_digits s =
  let len = String.length s in
  if len = 0 || len > max_digits then None
  else
    let rec go i acc =
      if i = len then Some acc
      else
        match s.[i] with
        | '0' .. '9' as c -> go (i + 1) ((acc * 10) + Char.code c - Char.code '0')
        | _ -> None
    in
    go 0 0
