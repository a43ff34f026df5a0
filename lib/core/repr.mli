(** Universal value representation.

    Everything that crosses the instrumentation boundary — method arguments,
    return values, logged shared-variable contents, views — is encoded as a
    {!t}.  This plays the role of the .NET binary serialization used by the
    original VYRD tool (§6.1): values survive a round trip through the log
    and can be compared structurally by the verification thread.

    Values contain no functions or cycles, so structural equality and
    [Stdlib.compare] are total and meaningful. *)

type t =
  | Unit
  | Bool of bool
  | Int of int
  | Str of string
  | Pair of t * t
  | List of t list

(** Structural equality, [equal a b = (a = b)], that skips any pair of
    physically equal subtrees on the way down. *)
val equal : t -> t -> bool

(** [equal_since pa pb a b] is [equal a b], given that [equal pa pb]: it
    descends only through [Pair] nodes where [a] or [b] is not physically
    the known pair's, and takes a pair of subtrees that physically are as
    equal.  The checker keeps the last viewI/viewS pair that compared equal
    and compares the next pair against it, so a commit costs what it
    changed. *)
val equal_since : t -> t -> t -> t -> bool

val compare : t -> t -> int
val pp : Format.formatter -> t -> unit
val to_string : t -> string

(** {1 Conveniences} *)

val unit : t
val bool : bool -> t
val int : int -> t
val str : string -> t
val pair : t -> t -> t
val list : t list -> t

(** Method outcome conventions used throughout the substrates: mirrors the
    paper's [success] / [failure] return values. *)
val success : t

val failure : t
val is_success : t -> bool

(** [sorted_list vs] builds a canonical set/multiset representation: the
    elements in nondecreasing order.  Views use this so that structurally
    equal abstract states compare equal. *)
val sorted_list : t list -> t

(** {1 Textual serialization}

    A small s-expression-like grammar:
    [u] (unit), [t]/[f] (booleans), decimal integers, double-quoted strings
    with escapes, [(P v v)] pairs and [(L v ...)] lists. *)

val to_text : t -> string

(** [of_text s] parses a value back.
    @raise Parse_error on malformed input. *)
val of_text : string -> t

exception Parse_error of string

(** [of_text_sub s pos] parses one value starting at [pos]; returns the value
    and the first position after it (used by the log parser). *)
val of_text_sub : string -> int -> t * int
