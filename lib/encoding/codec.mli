(** Binary persistence for encoded documents.

    The paper computes the pre/post encoding once at document loading time
    and reuses it across queries; this codec plays that role so the CLI can
    encode a document once ([scj encode]) and run experiments against the
    stored table.  The format is a self-describing little-endian layout
    (magic ["SCJDOC1"]), independent of OCaml's [Marshal]. *)

val magic : string

(** [write_channel oc doc] serializes the full column set. *)
val write_channel : out_channel -> Doc.t -> unit

(** [read_channel ic] loads a document: one read of the whole input,
    then {!decode_rows}.  Validates the magic header, bounds every read
    by the input's length and re-checks {!Doc.validate} on load; a
    malformed input is an [Error], never an exception. *)
val read_channel : in_channel -> (Doc.t, string) result

val write_file : string -> Doc.t -> unit

val read_file : string -> (Doc.t, string) result

(** {1 The row section}

    Everything but the post column — level, parent and kind columns,
    then one tag row and one text row per node (a presence flag, and a
    length-prefixed string when present).  The durable store's meta
    extent is exactly this section, so both share the one encoder and
    the one decoder. *)

(** [encode_rows buf doc] appends [doc]'s row section to [buf]. *)
val encode_rows : Buffer.t -> Doc.t -> unit

(** [decode_rows b ~pos ~len ~post ~height] decodes the row section
    occupying exactly [b[pos, pos + len)] for the rows of [post] and
    runs {!Doc.validate} once.  The int columns are decoded in one loop
    after a single bound check; tag names are interned straight from
    [b] (a name string is allocated on its first sighting only, symbols
    in pre order), and texts are appended straight into the text
    column.  Every read stays inside the range: a bad kind code, flag
    or string length, a short or overlong section, or an inconsistent
    document is an [Error] naming the defect.
    @raise Invalid_argument when the range is not within [b]. *)
val decode_rows :
  Bytes.t -> pos:int -> len:int -> post:int array -> height:int -> (Doc.t, string) result
