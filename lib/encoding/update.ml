module Tree = Scj_xml.Tree
module Error = Scj_error.Error

type op =
  | Insert of { parent : int; before : int option; fragment : Tree.t }
  | Delete of { pre : int }
  | Rename of { pre : int; name : string }

type applied = { doc : Doc.t; splice : int; delta : int }

let op_to_string = function
  | Insert { parent; before; fragment } ->
    Printf.sprintf "insert(parent=%d%s, %d nodes)" parent
      (match before with None -> "" | Some b -> Printf.sprintf ", before=%d" b)
      (Tree.node_count fragment)
  | Delete { pre } -> Printf.sprintf "delete(pre=%d)" pre
  | Rename { pre; name } -> Printf.sprintf "rename(pre=%d, %s)" pre name

let fail fmt = Format.kasprintf (fun s -> Error (Error.Validation s)) fmt

(* Every rendition passes the full encoding check before it escapes. *)
let validated doc ~splice ~delta =
  match Doc.validate doc with
  | Ok () -> Ok { doc; splice; delta }
  | Error msg -> Error (Error.Validation ("mutation broke the encoding: " ^ msg))

let insert doc ~parent:p ~before ~fragment =
  let n = Doc.n_nodes doc in
  if p < 0 || p >= n then fail "insert: parent pre %d out of bounds [0,%d)" p n
  else if Doc.kind doc p <> Doc.Element then
    fail "insert: parent %d is a %s, not an element" p (Doc.kind_to_string (Doc.kind doc p))
  else
    let pos_result =
      match before with
      | None -> Ok (p + Doc.size doc p + 1)
      | Some b ->
        if b < 0 || b >= n then fail "insert: before pre %d out of bounds [0,%d)" b n
        else if Doc.parent doc b <> p then
          fail "insert: before pre %d is not a child of parent %d" b p
        else if Doc.kind doc b = Doc.Attribute then
          fail "insert: cannot splice before attribute %d (attributes lead the subtree)" b
        else Ok b
    in
    match pos_result with
    | Error _ as e -> e
    | Ok pos ->
      let fragment = Doc.of_tree fragment in
      validated
        (Doc.Internal.splice doc ~at:pos ~drop:0 ~parent:p ~fragment:(Some fragment))
        ~splice:pos ~delta:(Doc.n_nodes fragment)

let delete doc ~pre:d =
  let n = Doc.n_nodes doc in
  if d < 0 || d >= n then fail "delete: pre %d out of bounds [0,%d)" d n
  else if d = 0 then fail "delete: cannot delete the document root"
  else
    let k = Doc.size doc d + 1 in
    validated
      (Doc.Internal.splice doc ~at:d ~drop:k ~parent:(Doc.parent doc d) ~fragment:None)
      ~splice:d ~delta:(-k)

let rename doc ~pre:r ~name =
  let n = Doc.n_nodes doc in
  if r < 0 || r >= n then fail "rename: pre %d out of bounds [0,%d)" r n
  else if name = "" then fail "rename: empty name"
  else
    match Doc.kind doc r with
    | Doc.Text | Doc.Comment ->
      fail "rename: pre %d is a %s and has no name" r (Doc.kind_to_string (Doc.kind doc r))
    | Doc.Element | Doc.Attribute | Doc.Pi ->
      validated (Doc.Internal.retag doc ~pre:r ~name) ~splice:r ~delta:0

let apply doc op =
  match op with
  | Insert { parent; before; fragment } -> insert doc ~parent ~before ~fragment
  | Delete { pre } -> delete doc ~pre
  | Rename { pre; name } -> rename doc ~pre ~name

(* ------------------------------------------------------------------ *)
(* WAL payload                                                          *)
(* ------------------------------------------------------------------ *)

(* Format: [version:1][op:1][body].  Integers are 8-byte little-endian,
   strings length-prefixed.  Fragments are serialized structurally (not
   as XML text) so whitespace-only text nodes and comment/PI fragments
   survive the round trip exactly. *)

let format_version = 1

let add_int buf v = Buffer.add_int64_le buf (Int64.of_int v)

let add_str buf s =
  add_int buf (String.length s);
  Buffer.add_string buf s

let rec add_tree buf = function
  | Tree.Element { name; attributes; children } ->
    Buffer.add_char buf '\000';
    add_str buf name;
    add_int buf (List.length attributes);
    List.iter
      (fun (k, v) ->
        add_str buf k;
        add_str buf v)
      attributes;
    add_int buf (List.length children);
    List.iter (add_tree buf) children
  | Tree.Text s ->
    Buffer.add_char buf '\001';
    add_str buf s
  | Tree.Comment s ->
    Buffer.add_char buf '\002';
    add_str buf s
  | Tree.Pi { target; data } ->
    Buffer.add_char buf '\003';
    add_str buf target;
    add_str buf data

let encode op =
  let buf = Buffer.create 64 in
  Buffer.add_char buf (Char.chr format_version);
  (match op with
  | Insert { parent; before; fragment } ->
    Buffer.add_char buf '\001';
    add_int buf parent;
    add_int buf (match before with None -> -1 | Some b -> b);
    add_tree buf fragment
  | Delete { pre } ->
    Buffer.add_char buf '\002';
    add_int buf pre
  | Rename { pre; name } ->
    Buffer.add_char buf '\003';
    add_int buf pre;
    add_str buf name);
  Buffer.contents buf

exception Malformed of string

let decode s =
  let pos = ref 0 in
  let need k what =
    if !pos + k > String.length s then raise (Malformed ("truncated " ^ what))
  in
  let get_byte what =
    need 1 what;
    let c = Char.code s.[!pos] in
    incr pos;
    c
  in
  let get_int what =
    need 8 what;
    let v = Int64.to_int (String.get_int64_le s !pos) in
    pos := !pos + 8;
    v
  in
  let get_str what =
    let len = get_int (what ^ " length") in
    if len < 0 then raise (Malformed (what ^ " negative length"));
    need len what;
    let v = String.sub s !pos len in
    pos := !pos + len;
    v
  in
  let rec get_tree () =
    match get_byte "node kind" with
    | 0 ->
      let name = get_str "element name" in
      let n_attrs = get_int "attribute count" in
      if n_attrs < 0 then raise (Malformed "negative attribute count");
      let attributes =
        List.init n_attrs (fun _ ->
            let k = get_str "attribute name" in
            let v = get_str "attribute value" in
            (k, v))
      in
      let n_children = get_int "child count" in
      if n_children < 0 then raise (Malformed "negative child count");
      let children = List.init n_children (fun _ -> get_tree ()) in
      Tree.Element { name; attributes; children }
    | 1 -> Tree.Text (get_str "text")
    | 2 -> Tree.Comment (get_str "comment")
    | 3 ->
      let target = get_str "pi target" in
      let data = get_str "pi data" in
      Tree.Pi { target; data }
    | k -> raise (Malformed (Printf.sprintf "unknown tree node kind %d" k))
  in
  try
    let version = get_byte "format version" in
    if version <> format_version then
      raise (Malformed (Printf.sprintf "unsupported mutation format version %d" version));
    let op =
      match get_byte "op kind" with
      | 1 ->
        let parent = get_int "parent" in
        let before = get_int "before" in
        let fragment = get_tree () in
        Insert { parent; before = (if before < 0 then None else Some before); fragment }
      | 2 -> Delete { pre = get_int "pre" }
      | 3 ->
        let pre = get_int "pre" in
        let name = get_str "name" in
        Rename { pre; name }
      | k -> raise (Malformed (Printf.sprintf "unknown mutation op kind %d" k))
    in
    if !pos <> String.length s then raise (Malformed "trailing bytes");
    Ok op
  with Malformed msg -> Error ("mutation record: " ^ msg)
