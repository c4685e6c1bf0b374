type t = { table : (string, int) Hashtbl.t; names : Str_col.t }

let create () = { table = Hashtbl.create 64; names = Str_col.create () }

let copy t = { table = Hashtbl.copy t.table; names = Str_col.of_array (Str_col.to_array t.names) }

let intern t name =
  match Hashtbl.find_opt t.table name with
  | Some sym -> sym
  | None ->
    let sym = Str_col.append t.names name in
    Hashtbl.add t.table name sym;
    sym

let find_opt t name = Hashtbl.find_opt t.table name

let name t sym =
  if sym < 0 || sym >= Str_col.length t.names then
    invalid_arg (Printf.sprintf "Dict.name: unknown symbol %d" sym);
  Str_col.get t.names sym

let size t = Str_col.length t.names

let iter f t = Str_col.iteri f t.names

let equal a b = Str_col.equal a.names b.names
