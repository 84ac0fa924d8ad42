"""Tutorial: build a brand-new workload from scratch.

The scenario: *feature extraction over variable-length records*. A batch
of records (Zipf-distributed lengths — think parsed documents) must each
be scored against a shared dictionary of term weights, and the per-record
scores then reduce to a global top-line number. This exercises all three
annotations in ~120 lines:

- per-record work is skewed             -> WorkHint (load balancing)
- every record scores against the same
  dictionary                            -> shared ReadSpec (multicast)
- the reduction consumes score streams  -> stream_from (pipelining)

Run:  python examples/custom_workload.py
See:  docs/programming-model.md for the full walkthrough.
"""

from repro import (
    Delta,
    Program,
    ReadSpec,
    StaticParallel,
    TaskType,
    WorkHint,
    WriteSpec,
    default_baseline_config,
    default_delta_config,
)
from repro.arch.dfg import compare_count_dfg, dot_product_dfg
from repro.util.rng import DeterministicRng
from repro.workloads.base import Workload, first_use, require


class RecordScoring(Workload):
    """Score variable-length records against a shared dictionary."""

    name = "record-scoring"

    def __init__(self, num_records: int = 48, dict_terms: int = 2048,
                 max_len: int = 1024, seed: int = 0) -> None:
        # The constructor only stores its arguments: they are the
        # workload's identity (the base class records them for the
        # caches), so each must be a plain scalar or a tuple of them.
        # Inputs are generated below, on first use (``first_use`` is
        # ``functools.cached_property`` minus a lock that forked pool
        # workers could inherit held).
        self.num_records = num_records
        self.dict_terms = dict_terms
        self.max_len = max_len
        self.seed = seed
        self.dict_bytes = dict_terms * 4

    @first_use
    def lengths(self) -> list[int]:
        rng = DeterministicRng("records", self.num_records, self.max_len,
                               self.seed)
        return [16 * s for s in
                rng.zipf_sizes(self.num_records, 1.2, self.max_len // 16)]

    @first_use
    def records(self) -> list[list[int]]:
        # A record is a list of term ids; the dictionary maps id -> weight.
        rng = DeterministicRng("record-terms", self.dict_terms, self.seed)
        return [[rng.randint(0, self.dict_terms - 1) for _ in range(length)]
                for length in self.lengths]

    @first_use
    def weights(self) -> list[int]:
        rng = DeterministicRng("term-weights", self.dict_terms, self.seed)
        return [rng.randint(-3, 3) for _ in range(self.dict_terms)]

    def build_program(self) -> Program:
        records, weights = self.records, self.weights
        dict_bytes = self.dict_bytes
        state = {"scores": {}, "total": None}

        def score_kernel(ctx, args):
            index = args["index"]
            ctx.state["scores"][index] = sum(
                weights[term] for term in records[index])

        score_type = TaskType(
            name="score",
            dfg=dot_product_dfg("score"),
            kernel=score_kernel,
            trips=lambda args: args["length"],
            reads=lambda args: (
                # The dictionary: read by every task -> multicast once.
                ReadSpec(nbytes=dict_bytes, region="dict", shared=True,
                         locality=0.5),
                # The record itself: private, sequential.
                ReadSpec(nbytes=args["length"] * 4),
            ),
            writes=lambda args: (WriteSpec(nbytes=4),),
            work_hint=WorkHint(lambda args: args["length"]),
        )

        def reduce_kernel(ctx, args):
            ctx.state["total"] = sum(ctx.state["scores"].values())

        reduce_type = TaskType(
            name="reduce",
            dfg=compare_count_dfg("reduce"),
            kernel=reduce_kernel,
            trips=lambda args: max(1, args["count"]),
        )

        def root_kernel(ctx, args):
            scorers = [
                ctx.spawn(score_type, {"index": i, "length": length})
                for i, length in enumerate(self.lengths)
            ]
            # The reduction streams the scores as they are produced.
            ctx.spawn(reduce_type, {"count": len(scorers)},
                      stream_from=scorers)

        root_type = TaskType(
            name="root", dfg=compare_count_dfg("root"),
            kernel=root_kernel, trips=lambda args: 1)
        return Program("record-scoring", state,
                       [root_type.instantiate()])

    def reference(self) -> int:
        return sum(self.weights[t] for record in self.records
                   for t in record)

    def check(self, state) -> None:
        # ``expected`` is reference(), computed once per instance.
        require(state["total"] == self.expected,
                f"total {state['total']} != {self.expected}")


def main() -> None:
    workload = RecordScoring()
    delta = Delta(default_delta_config(lanes=8)).run(
        workload.build_program())
    workload.check(delta.state)
    static = StaticParallel(default_baseline_config(lanes=8)).run(
        workload.build_program())
    workload.check(static.state)

    print(f"record-scoring: {len(workload.records)} records, "
          f"lengths {min(workload.lengths)}..{max(workload.lengths)}")
    print(f"  delta   {delta.cycles:>10,.0f} cycles  "
          f"CV={delta.imbalance_cv:.3f}  "
          f"DRAM={delta.dram_bytes / 1024:.1f} KiB")
    print(f"  static  {static.cycles:>10,.0f} cycles  "
          f"CV={static.imbalance_cv:.3f}  "
          f"DRAM={static.dram_bytes / 1024:.1f} KiB")
    print(f"  speedup {static.cycles / delta.cycles:.2f}x "
          f"(all three mechanisms at once)")
    print(f"  total score (verified): {delta.state['total']}")


if __name__ == "__main__":
    main()
