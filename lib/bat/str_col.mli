(** Growable column of strings (the text/value heap of the document
    encoding).  Same interface discipline as {!Int_col}. *)

type t

val create : ?capacity:int -> unit -> t

val length : t -> int

(** @raise Invalid_argument when out of bounds. *)
val get : t -> int -> string

(** [append col s] adds [s] and returns its index. *)
val append : t -> string -> int

val of_array : string array -> t

val to_array : t -> string array

(** [splice t ~pos ~drop ins] is a fresh column holding [t]'s strings
    [0, pos), then all of [ins], then [t]'s strings from [pos + drop] on.
    Neither input is modified.
    @raise Invalid_argument when [pos, pos + drop) is not within [t]. *)
val splice : t -> pos:int -> drop:int -> t -> t

val iteri : (int -> string -> unit) -> t -> unit

val equal : t -> t -> bool
