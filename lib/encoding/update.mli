(** Subtree mutations over the pre/size/level encoding.

    The paper picks pre/size/level over pre/post precisely because it
    tolerates updates (footnote 5): a subtree insert or delete at pre
    rank [p] renumbers the pre ranks at and after [p] by a constant
    shift, adjusts the [size] of the O(height) ancestors of [p], and
    leaves every other row untouched — [post] is derived back from
    Equation (1) ([post = pre + size - level]), never stored
    authoritatively here.

    [apply] is functional: the input document is never modified, the
    result is a fresh rendition that shares with the old one at most
    columns no one writes after construction.  That is the substrate of
    the server's snapshot isolation — readers keep the old {!Doc.t}
    while the writer builds the next.

    A commit costs a column splice ({!Doc.Internal.splice}): the prefix
    and suffix of every column are blitted around the fragment's rows,
    only the suffix's parents and text slots shift, and only the
    fragment's names are interned.  A rename replaces the tag column
    alone.  Every rendition then passes one full {!Doc.validate}.  The returned
    [splice]/[delta] describe the renumbering compactly so downstream
    structures (document statistics, the B+-tree index, the planner
    catalog) can be maintained incrementally instead of rebuilt. *)

type op =
  | Insert of { parent : int; before : int option; fragment : Scj_xml.Tree.t }
      (** Splice [fragment] in as a child of element [parent]: before
          sibling [before] (a non-attribute child of [parent]), or as the
          last child when [before] is [None]. *)
  | Delete of { pre : int }
      (** Remove the whole subtree rooted at [pre] (the node itself, its
          attributes and descendants).  The document root cannot be
          deleted. *)
  | Rename of { pre : int; name : string }
      (** Change the tag of an element, the name of an attribute, or the
          target of a processing instruction. *)

type applied = {
  doc : Doc.t;  (** The new rendition; the old document is untouched. *)
  splice : int;
      (** First pre rank whose row changed or shifted.  Rows with
          [pre < splice] kept rank, level, kind and content; only the
          ancestors of the splice point changed [size] (and hence
          [post]). *)
  delta : int;
      (** Node-count change: [+k] for an insert of a [k]-node fragment,
          [-k] for a delete of a [k]-node subtree, [0] for a rename. *)
}

val apply : Doc.t -> op -> (applied, Scj_error.Error.t) result

val op_to_string : op -> string

(** {1 WAL payload}

    Logical mutation records are logged through the store's redo log;
    the payload is format-versioned independently of the store layout so
    old logs stay replayable. *)

val encode : op -> string

val decode : string -> (op, string) result
