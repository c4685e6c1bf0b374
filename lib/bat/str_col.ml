type t = { mutable data : string array; mutable len : int }

let create ?(capacity = 16) () =
  let capacity = max capacity 1 in
  { data = Array.make capacity ""; len = 0 }

let length t = t.len

let get t i =
  if i < 0 || i >= t.len then
    invalid_arg (Printf.sprintf "Str_col.get: index %d out of bounds [0,%d)" i t.len);
  Array.unsafe_get t.data i

let append t s =
  if t.len = Array.length t.data then begin
    let fresh = Array.make (2 * Array.length t.data) "" in
    Array.blit t.data 0 fresh 0 t.len;
    t.data <- fresh
  end;
  t.data.(t.len) <- s;
  let i = t.len in
  t.len <- t.len + 1;
  i

let of_array a = { data = Array.copy a; len = Array.length a }

let to_array t = Array.sub t.data 0 t.len

let splice t ~pos ~drop ins =
  if pos < 0 || drop < 0 || pos + drop > t.len then
    invalid_arg
      (Printf.sprintf "Str_col.splice: range [%d,%d) out of bounds [0,%d)" pos (pos + drop) t.len);
  let len = t.len - drop + ins.len in
  let data = Array.make (max len 1) "" in
  Array.blit t.data 0 data 0 pos;
  Array.blit ins.data 0 data pos ins.len;
  Array.blit t.data (pos + drop) data (pos + ins.len) (t.len - pos - drop);
  { data; len }

let iteri f t =
  for i = 0 to t.len - 1 do
    f i t.data.(i)
  done

let equal a b =
  a.len = b.len
  &&
  let rec loop i = i >= a.len || (String.equal a.data.(i) b.data.(i) && loop (i + 1)) in
  loop 0
