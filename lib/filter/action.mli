(** Stack actions of the filter language (paper, figure 3-6).

    A stack action optionally pushes one word onto the evaluation stack and
    executes {e before} the binary operator carried by the same instruction
    word. [Pushlit] carries its literal (transmitted as the following 16-bit
    word in the wire encoding); [Pushword] carries the packet word index
    ([PUSHWORD+n] in the paper's notation).

    [Pushind] is the "indirect push" extension proposed in section 7: it pops
    the top of stack and pushes the packet word at that index, enabling
    filters over variable-format headers (e.g. IP options). *)

type t =
  | Nopush
  | Pushlit of int   (** push a literal constant (low 16 bits retained) *)
  | Pushzero
  | Pushone
  | Pushffff
  | Pushff00
  | Push00ff
  | Pushword of int  (** push the [n]th 16-bit word of the packet *)
  | Pushind          (** extension: pop an index, push that packet word *)

val equal : t -> t -> bool
val compare : t -> t -> int

val is_extension : t -> bool

val pushes : t -> bool
(** Whether the action leaves the stack one word deeper. True for everything
    except [Nopush] and [Pushind] (which pops one and pushes one). *)

val max_word_index : int
(** Largest packet-word index encodable in the [Pushword] action field. *)

val code : t -> int
(** Encoding in the action field (low 10 bits of an instruction word). The
    1987 actions match 4.3BSD [<net/enet.h>]: [NOPUSH]=0, [PUSHLIT]=1,
    [PUSHZERO]=2, …, [PUSHWORD+n] = 16+n. *)

val of_code : int -> t option
(** Inverse of [code]; [None] for unused code points. *)

val const : t -> int option
(** The constant the action pushes, whatever the packet: a [Pushlit]'s low
    16 bits or the fixed value of the five constant pushes; [None] for the
    other actions. *)

val needs_literal : t -> bool
(** True only for [Pushlit _], whose literal occupies the following word. *)

val name : t -> string
val pp : Format.formatter -> t -> unit
