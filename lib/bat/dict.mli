(** String interning dictionary: maps names (XML tag names, attribute
    names, PI targets) to dense integer symbols and back.  Symbols are
    assigned in first-seen order starting at 0. *)

type t

val create : unit -> t

(** An independent copy: interning into it leaves [t] unchanged, and it
    keeps every symbol [t] assigned. *)
val copy : t -> t

(** [intern t name] returns the symbol for [name], allocating one on first
    sight. *)
val intern : t -> string -> int

(** [find_opt t name] is the symbol for [name] if it was interned. *)
val find_opt : t -> string -> int option

(** [name t sym] is the string for symbol [sym].
    @raise Invalid_argument for an unknown symbol. *)
val name : t -> int -> string

(** Number of distinct interned names. *)
val size : t -> int

val iter : (int -> string -> unit) -> t -> unit

val equal : t -> t -> bool
