"""Shared configuration for the benchmark harness.

Each benchmark module regenerates one table or figure of the paper's
evaluation and asserts its shape (the module docstrings name the table or
section; README.md summarises what each reproduction pins).  The
default workload sizes are scaled down from the paper's (which used a Scala
engine + native Z3 on dedicated hardware) so that the whole suite completes
in minutes on a laptop; set ``SYMNET_BENCH_SCALE=full`` to run the larger
versions.

Wall clock is measured in one place, ``bench/`` (see ``bench/README.md``):
these modules assert the shape of each result, not how fast it came.
"""

import os

import pytest

FULL_SCALE = os.environ.get("SYMNET_BENCH_SCALE", "").lower() == "full"


def scaled(small, full):
    """Pick a workload size depending on the requested scale."""
    return full if FULL_SCALE else small


@pytest.fixture(scope="session")
def bench_report():
    """Collect human-readable result rows and print them at the end of the
    session, mirroring the tables in the paper."""
    rows = []
    yield rows
    if rows:
        print("\n" + "=" * 72)
        print("Reproduced evaluation rows (paper table/figure -> measured)")
        print("=" * 72)
        for row in rows:
            print(row)
