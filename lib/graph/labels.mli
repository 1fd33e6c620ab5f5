(** Combined reachability labels for DAGs — the Bao–Davidson-style compact
    index behind [wolves analyze --labels], cross-validated there against
    the dense closure.

    Every node carries a few machine words of labels drawn from three
    existing indexes, layered from cheapest to most general:

    - its {e topological rank}: [rank u >= rank v] refutes [u ⇝ v] in O(1)
      (a path strictly increases rank);
    - its {e dominator-tree interval} ({!Dominators.tree_intervals}):
      [u] an ancestor of [v] in the dominator tree proves [u ⇝ v] in O(1);
    - its {e chain labels} ({!Chains}): the authoritative O(1) answer for
      every pair the first two layers did not settle.

    A spanning-forest {e interval index} ({!Interval}) is built alongside
    and used by {!cross_validate} as an independent witness: the checker
    demands that chains, intervals, the combined query, and the dense
    {!Reach} closure all agree, pair by pair.

    Space is O(V·k) words for [k] chains (plus O(V) for the rest) versus
    O(V²/w) for the closure; construction is O(E·k) int operations versus
    O(E·V/w) word operations. Cyclic graphs are rejected. *)

type t

val compute : Digraph.t -> t
(** Build all label layers. @raise Invalid_argument on a cyclic graph. *)

val graph_size : t -> int

val reaches : t -> int -> int -> bool
(** [reaches t u v]: is there a directed path from [u] to [v]? Reflexive,
    O(1), answered from the labels alone. *)

val n_chains : t -> int
(** Chains in the greedy path cover — the [k] in the space bound. *)

val index_words : t -> int
(** Total machine words the labels occupy (chain labels, ranks, dominator
    intervals, and the interval-index rows), for comparison against
    [Reach.n_closure_edges / word_size] closure words. *)

val cross_validate : t -> Reach.t -> (int * int) option
(** Exhaustive consistency check against the dense closure: the first pair
    [(u, v)] on which the combined query, the raw chain labels, the raw
    interval index, and [Reach.reaches] do not all agree — [None] when the
    label set is consistent. O(n² log n); intended for tests and
    [wolves analyze --labels] on human-sized specs. *)

val cross_validate_sampled :
  t -> Reach.t -> seed:int -> samples:int -> (int * int) option
(** {!cross_validate} over [samples] deterministically PRNG-chosen pairs —
    the large-spec variant. *)
