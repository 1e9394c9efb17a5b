(** The differential oracle: one [(program, packet)] pair, every engine.

    A single check runs the pair through

    - the checked interpreter under both published semantics
      ([`Paper] and [`Bsd]),
    - the unchecked {!Pf_filter.Fast} interpreter (verdict {e and}
      instruction count),
    - the {!Pf_filter.Closure} compiler,
    - the {!Pf_filter.Analysis} abstract interpreter, whose claims (verdict
      summary, division-fault impossibility, the safe/minimum packet-word
      bounds, instruction and cost bounds, self-relation, and the read set —
      flipping every packet word outside an [Exact] read set, or growing the
      packet by a word it does not contain, must not change the verdict)
      must all be consistent with the concrete run,
    - a single-filter {!Pf_filter.Decision} tree,
    - the {!Pf_kernel.Pfdev} demultiplexer's flow cache: the packet goes
      through a cold cache, a warm cache (the same device again), and a
      cache-disabled device, which must agree on the verdict, on per-port
      accept counts, and on overflow-drop accounting, and the warm probe
      must hit exactly when the read set is bounded,
    - the {!Pf_kernel.Pfdev} [`Dispatch] strategy: the cross-filter
      dispatch automaton ({!Pf_filter.Dispatch}) — cache off and cache on
      — must agree with the sequential walk on verdicts, per-port accept
      counts, and overflow-drop accounting, on a device holding both a
      copy-all (residual) and a plain (indexable) port,
    - the {!Pf_filter.Peephole} pre-pass followed by the checked and fast
      interpreters,
    - the {!Pf_filter.Regvm} register VM over the optimized
      {!Pf_filter.Ir} lowering,
    - translation validation ({!Pf_filter.Equiv}) of the peephole and
      register-IR rewrites, and a short proof-gated
      {!Pf_filter.Superopt} search whose refuted candidates' witnesses are
      replayed through every engine, and
    - a {!Pf_filter.Program} wire-codec encode/decode round-trip,

    and classifies any disagreement. Two boundaries are respected rather than
    reported: programs the validator rejects only exercise the interpreters
    (the compiled engines are not defined on them), and [`Bsd] may legally
    diverge from [`Paper] on programs containing a short-circuit operator
    (the documented stack-depth difference in {!Pf_filter.Interp}). *)

type mismatch = { engine : string; detail : string }

type outcome =
  | Agreement of { accept : bool; bsd_divergent : bool }
      (** Every engine agreed on [accept]. [bsd_divergent] notes a legal
          [`Bsd] departure (short-circuit programs only). *)
  | Validator_rejected of Pf_filter.Validate.error
      (** Static validation rejected the program; the checked interpreters
          ran without incident. *)
  | Disagreement of mismatch list  (** At least one engine disagreed — a bug. *)

type extra_engine = string * (Pf_filter.Validate.t -> Pf_pkt.Packet.t -> bool)
(** An additional engine to cross-check (used by the tests to prove the
    oracle catches seeded semantic mutants). *)

val check : ?extra:extra_engine list -> Pf_filter.Program.t -> Pf_pkt.Packet.t -> outcome

val pp_mismatch : Format.formatter -> mismatch -> unit
val pp_outcome : Format.formatter -> outcome -> unit
