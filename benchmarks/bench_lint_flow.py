"""Whole-tree lint pass, flow rules included.

Delegates to :func:`repro.experiments.bench.bench_lint_flow` — the same
implementation behind ``repro bench lint_flow`` — so the number printed
here is the number shipped in ``BENCH_lint_flow.json``. Not a figure of
the paper: a CI-latency guard. ``repro lint`` runs inside the tier-1
suite, so a whole-program pass (symbol table, call graph, summary
fixpoint, findings walk over src/ and tests/) must stay under the
registered ceiling. The benchmark itself fails on any finding or
warning, since either means CI is red.
"""

from repro.experiments.bench import _LINT_FLOW_MAX_SECONDS, bench_lint_flow

COLUMNS = ["files_checked", "suppressed", "flow_seconds", "max_seconds"]


def test_lint_flow_runtime(print_rows):
    def run():
        payload = bench_lint_flow()
        assert payload["clean"] is True
        return [{key: payload[key] for key in COLUMNS}]

    rows = print_rows(
        "Whole-tree lint, flow rules included (src/ + tests/)",
        run,
        columns=COLUMNS,
    )
    (row,) = rows
    assert row["files_checked"] > 100
    assert row["flow_seconds"] < _LINT_FLOW_MAX_SECONDS
