module Dict = Scj_bat.Dict
module Str_col = Scj_bat.Str_col

let magic = "SCJDOC1"

(* Integers are little-endian 63-bit-safe values stored as 8 bytes.
   Writers append straight into a [Buffer]; readers decode from one
   in-memory buffer, so neither side allocates per integer. *)
let add_int buf v = Buffer.add_int64_le buf (Int64.of_int v)

let add_string buf s =
  add_int buf (String.length s);
  Buffer.add_string buf s

let get_int b off = Int64.to_int (Bytes.get_int64_le b off)

let kind_code = function
  | Doc.Element -> 0
  | Doc.Attribute -> 1
  | Doc.Text -> 2
  | Doc.Comment -> 3
  | Doc.Pi -> 4

(* ------------------------------------------------------------------ *)
(* The row section                                                     *)
(*                                                                     *)
(*   level x n | parent x n | kind x n | tag row x n | text row x n    *)
(*                                                                     *)
(* A tag or text row is a presence flag (0 or 1), and when present a   *)
(* string: its byte length, then its bytes.  The durable store's meta  *)
(* extent is exactly this section.                                     *)
(* ------------------------------------------------------------------ *)

let encode_rows buf doc =
  let n = Doc.n_nodes doc in
  Array.iter (add_int buf) (Doc.level_array doc);
  Array.iter (add_int buf) (Doc.parent_array doc);
  Array.iter (fun k -> add_int buf (kind_code k)) (Doc.kind_array doc);
  for pre = 0 to n - 1 do
    match Doc.tag_name doc pre with
    | None -> add_int buf 0
    | Some name ->
      add_int buf 1;
      add_string buf name
  done;
  for pre = 0 to n - 1 do
    match (Doc.kind doc pre, Doc.content doc pre) with
    | (Doc.Text | Doc.Comment | Doc.Attribute | Doc.Pi), Some s ->
      add_int buf 1;
      add_string buf s
    | _, _ -> add_int buf 0
  done

exception Bad of string

let bad fmt = Printf.ksprintf (fun s -> raise (Bad s)) fmt

(* Interning straight from the buffer: an open-addressing table from a
   name's bytes to its symbol, so a name string is allocated only the
   first time it is seen.  Symbols are [Dict]'s, assigned in first-seen
   (pre) order. *)
type interner = {
  dict : Dict.t;
  mutable syms : int array;  (* symbol + 1; 0 marks an empty slot *)
  mutable hashes : int array;
}

let new_interner () = { dict = Dict.create (); syms = Array.make 64 0; hashes = Array.make 64 0 }

let hash_slice b pos len =
  let h = ref 0 in
  for i = pos to pos + len - 1 do
    h := (!h * 31) + Char.code (Bytes.get b i)
  done;
  let h = !h land max_int in
  h lxor (h lsr 17)

let same_name b pos len name =
  String.length name = len
  &&
  let i = ref 0 in
  while !i < len && Bytes.get b (pos + !i) = String.unsafe_get name !i do
    incr i
  done;
  !i = len

(* the slot holding the name [b[pos, pos + len)] (hash [h]), or the
   empty slot that ends its probe sequence *)
let find_slot it h b pos len =
  let mask = Array.length it.syms - 1 in
  let slot = ref (h land mask) and found = ref (-1) in
  while !found < 0 do
    let s = it.syms.(!slot) in
    if s = 0 || (it.hashes.(!slot) = h && same_name b pos len (Dict.name it.dict (s - 1))) then
      found := !slot
    else slot := (!slot + 1) land mask
  done;
  !found

let grow it =
  let old_syms = it.syms and old_hashes = it.hashes in
  let mask = (2 * Array.length old_syms) - 1 in
  it.syms <- Array.make (mask + 1) 0;
  it.hashes <- Array.make (mask + 1) 0;
  Array.iteri
    (fun i s ->
      if s <> 0 then begin
        let slot = ref (old_hashes.(i) land mask) in
        while it.syms.(!slot) <> 0 do
          slot := (!slot + 1) land mask
        done;
        it.syms.(!slot) <- s;
        it.hashes.(!slot) <- old_hashes.(i)
      end)
    old_syms

let intern_slice it b pos len =
  let h = hash_slice b pos len in
  let slot = find_slot it h b pos len in
  let s = it.syms.(slot) in
  if s <> 0 then s - 1
  else begin
    let sym = Dict.intern it.dict (Bytes.sub_string b pos len) in
    it.syms.(slot) <- sym + 1;
    it.hashes.(slot) <- h;
    if 2 * Dict.size it.dict > Array.length it.syms then grow it;
    sym
  end

let decode_rows b ~pos ~len ~post ~height =
  if pos < 0 || len < 0 || pos > Bytes.length b - len then invalid_arg "Codec.decode_rows";
  let n = Array.length post in
  let limit = pos + len in
  try
    (* the three int columns: one bound check, one loop *)
    if n > len / 24 then bad "row section truncated (%d bytes for %d rows)" len n;
    let level = Array.make n 0 and parent = Array.make n 0 and kind = Array.make n Doc.Element in
    for i = 0 to n - 1 do
      let o = pos + (8 * i) in
      level.(i) <- get_int b o;
      parent.(i) <- get_int b (o + (8 * n));
      kind.(i) <-
        (match get_int b (o + (16 * n)) with
        | 0 -> Doc.Element
        | 1 -> Doc.Attribute
        | 2 -> Doc.Text
        | 3 -> Doc.Comment
        | 4 -> Doc.Pi
        | c -> bad "corrupt kind code %d at row %d" c i)
    done;
    (* the variable-length rows: every read is bounded by [limit] *)
    let cur = ref (pos + (24 * n)) in
    let next_int () =
      if !cur > limit - 8 then bad "row section truncated at byte %d" (!cur - pos);
      let v = get_int b !cur in
      cur := !cur + 8;
      v
    in
    (* the length of a present string, or -1 for an absent one *)
    let next_string_len row =
      match next_int () with
      | 0 -> -1
      | 1 ->
        let l = next_int () in
        if l < 0 || l > limit - !cur then bad "corrupt string length %d at row %d" l row;
        l
      | f -> bad "corrupt presence flag %d at row %d" f row
    in
    let it = new_interner () in
    let tag = Array.make n (-1) in
    for i = 0 to n - 1 do
      let l = next_string_len i in
      if l >= 0 then begin
        tag.(i) <- intern_slice it b !cur l;
        cur := !cur + l
      end
    done;
    let texts = Str_col.create ~capacity:(max 16 (n / 2)) () in
    let content = Array.make n (-1) in
    for i = 0 to n - 1 do
      let l = next_string_len i in
      if l >= 0 then begin
        content.(i) <- Str_col.append texts (Bytes.sub_string b !cur l);
        cur := !cur + l
      end
    done;
    if !cur <> limit then bad "%d trailing byte(s) after the row section" (limit - !cur);
    let doc =
      Doc.Internal.of_columns ~post ~level ~parent ~kind ~tag ~content ~names:it.dict ~texts
        ~height
    in
    match Doc.validate doc with
    | Ok () -> Ok doc
    | Error e -> Error (Printf.sprintf "rows are inconsistent: %s" e)
  with Bad msg -> Error msg

(* ------------------------------------------------------------------ *)
(* The document file: magic | n | height | post x n | row section      *)
(* ------------------------------------------------------------------ *)

let write_channel oc doc =
  let n = Doc.n_nodes doc in
  let buf = Buffer.create (String.length magic + (48 * (n + 1))) in
  Buffer.add_string buf magic;
  add_int buf n;
  add_int buf (Doc.height doc);
  Array.iter (add_int buf) (Doc.post_array doc);
  encode_rows buf doc;
  Buffer.output_buffer oc buf

let decode_file b =
  let len = Bytes.length b in
  let m = String.length magic in
  if len < m || not (String.equal (Bytes.sub_string b 0 m) magic) then Error "bad magic"
  else if len < m + 16 then Error "truncated"
  else begin
    let n = get_int b m and height = get_int b (m + 8) in
    let post_pos = m + 16 in
    if n <= 0 || n > 1 lsl 40 then Error "corrupt node count"
    else if n > (len - post_pos) / 8 then Error "truncated"
    else begin
      let post = Array.init n (fun i -> get_int b (post_pos + (8 * i))) in
      let rows = post_pos + (8 * n) in
      decode_rows b ~pos:rows ~len:(len - rows) ~post ~height
    end
  end

let read_channel ic =
  (* one read of the whole file; the fresh string is never shared, so
     viewing it as bytes is safe *)
  let b = Bytes.unsafe_of_string (In_channel.input_all ic) in
  Result.map_error (Printf.sprintf "corrupt document file: %s") (decode_file b)

let write_file path doc =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> write_channel oc doc)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> read_channel ic)
