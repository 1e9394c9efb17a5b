(** Ahead-of-time filter validation.

    Section 7 of the paper observes that because the filter language has no
    branches, the per-instruction validity, stack-bounds, and (for constant
    offsets) packet-bounds checks performed by the 1987 interpreter can all be
    hoisted to filter-installation time. This module performs that static
    analysis; {!Fast} then runs validated programs without per-step
    checks.

    Validation tracks the exact stack depth before each instruction — exact
    because the language is straight-line and every action/operator has a
    fixed stack effect (under the default [`Paper] short-circuit semantics). *)

val max_code_words : int
(** Longest accepted program, in 16-bit code words (255). *)

type error =
  | Program_too_long of { code_words : int }
  | Static_underflow of { pc : int; depth : int }
      (** an operator needs two stack words but at most [depth] are present *)
  | Static_overflow of { pc : int }
  | Word_offset_unencodable of { pc : int; index : int }
      (** a [Pushword] index too large for the 10-bit action field *)

val pp_error : Format.formatter -> error -> unit

type t = private {
  program : Program.t;
  min_packet_words : int;
      (** packets shorter than this many 16-bit words are rejected outright
          (they would fault a constant-offset push) *)
  final_depth : int;  (** stack depth if the program runs to completion *)
  has_indirect : bool;  (** uses [Pushind]: packet bounds stay dynamic *)
  has_division : bool;  (** uses [Div]/[Mod]: may fault at run time *)
}

val check : Program.t -> (t, error) result

val check_exn : Program.t -> t
(** Raises [Invalid_argument] with the rendered error. *)

val program : t -> Program.t
