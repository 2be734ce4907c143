(** The JSON codec behind every dump, portfolio and stats file.

    A number keeps the exact text it prints as: an emitter picks its
    format once ({!float}, {!g}, {!fixed}), and a value read back with
    {!parse} prints to the same bytes.  The printer has one compact
    layout, [", "] between items and [": "] after a key.  The reader is
    strict RFC 8259: one value, then only whitespace. *)

type t =
  | Null
  | Bool of bool
  | Number of string  (** the literal text, e.g. ["0.050000000000000003"] *)
  | String of string
  | Array of t list
  | Object of (string * t) list  (** members in order *)

val int : int -> t

val float : float -> t
(** [%.17g], which reads back to the same float.  Here and in {!g} and
    {!fixed}, a non-finite float is {!Null}. *)

val g : int -> float -> t
(** [g n x] is [%.*g]: [n] significant digits. *)

val fixed : int -> float -> t
(** [fixed n x] is [%.*f]: [n] digits after the point. *)

val option : ('a -> t) -> 'a option -> t
(** [None] is {!Null}. *)

val to_string : t -> string

val parse : string -> (t, string) result
(** The one value in the text, or an error naming the byte offset. *)

val member : string -> t -> t option
(** The value of an object's own key (never a nested object's); [None]
    when the key is absent or the value is no object. *)

val as_int : t -> int option
val as_float : t -> float option
val as_bool : t -> bool option
val as_string : t -> string option
