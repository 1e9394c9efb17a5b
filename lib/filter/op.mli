(** Binary operators of the filter language (paper, figure 3-6).

    Every operator except [Nop] pops the top two words of the evaluation
    stack — the paper calls them [T1] (top) and [T2] (below) — and pushes one
    result [R]. Logical operators treat any non-zero word as TRUE; TRUE is
    represented as 1 and FALSE as 0 on the stack.

    The four short-circuit operators ([Cor], [Cand], [Cnor], [Cnand]) all
    compute [R := (T1 = T2)] and either terminate the whole program with a
    fixed verdict or push [R] and continue (section 3.1).

    [Add] .. [Rsh] are the arithmetic extensions proposed in section 7 of the
    paper ("arithmetic operators to assist in addressing-unit conversions");
    they are not part of the 1987 instruction set and are encoded in
    otherwise-unused code points. *)

type t =
  | Nop
  | Eq
  | Neq
  | Lt
  | Le
  | Gt
  | Ge
  | And
  | Or
  | Xor
  | Cor   (** terminate TRUE if [T1 = T2], else push and continue *)
  | Cand  (** terminate FALSE if [T1 <> T2], else push and continue *)
  | Cnor  (** terminate FALSE if [T1 = T2], else push and continue *)
  | Cnand (** terminate TRUE if [T1 <> T2], else push and continue *)
  | Add   (** extension: [(T2 + T1) land 0xffff] *)
  | Sub   (** extension: [(T2 - T1) land 0xffff] *)
  | Mul   (** extension: [(T2 * T1) land 0xffff] *)
  | Div   (** extension: [T2 / T1]; division by zero rejects the packet *)
  | Mod   (** extension: [T2 mod T1]; division by zero rejects the packet *)
  | Lsh   (** extension: [(T2 lsl (T1 land 15)) land 0xffff] *)
  | Rsh   (** extension: [T2 lsr (T1 land 15)] *)

val equal : t -> t -> bool
val compare : t -> t -> int

val all : t list
(** Every operator, in encoding order. *)

val is_short_circuit : t -> bool
val is_extension : t -> bool

(** Result of applying an operator to [t2] (below) and [t1] (top). *)
type application =
  | Push of int          (** push the result and continue *)
  | Terminate of bool    (** short-circuit: stop with this verdict *)
  | Fault                (** division by zero *)

val apply : t -> t2:int -> t1:int -> application
(** [apply op ~t2 ~t1] never returns [Push] for [Nop] callers — [Nop] must be
    special-cased by the interpreter since it pops nothing; calling [apply
    Nop] raises [Invalid_argument]. *)

val apply_accept : int
(** Sentinel returned by {!apply_int}: terminate accepting. Negative. *)

val apply_fault : int
(** Sentinel returned by {!apply_int}: division by zero. Negative (faults
    reject the packet, but engines may want to count them apart). *)

val apply_int : t -> t2:int -> t1:int -> int
(** Allocation-free {!apply} for hot loops: a non-negative result is the
    16-bit value to push, a negative one is {!apply_accept}, the sentinel
    for terminating rejecting, or {!apply_fault}. Stack values are 16-bit,
    so the sentinels can never collide with a pushed result. Agrees with
    {!apply} on every operator; raises [Invalid_argument] on [Nop]. *)

(** {1 Packed run results}

    The engines' evaluation cores ([Fast.eval], [Regvm.eval]) return a
    run's verdict and its executed-instruction count packed in one
    non-negative int, so a run allocates nothing: no exception, tuple or
    option. *)

val packed : accept:bool -> insns:int -> int
val packed_accepts : int -> bool
val packed_insns : int -> int

val code : t -> int
(** Encoding in the operator field (high 6 bits of an instruction word),
    matching 4.3BSD [<net/enet.h>] for the 1987 operators. *)

val of_code : int -> t option

val name : t -> string
(** Lower-case assembler mnemonic, e.g. ["cand"]. *)

val of_name : string -> t option
val pp : Format.formatter -> t -> unit
