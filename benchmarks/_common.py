"""Shared helpers for the benchmark harness.

Each ``bench_*.py`` module regenerates one table or figure of the paper:
it runs the experiment, prints the paper-style rows (run pytest with ``-s``
to see them live), writes them to ``benchmarks/results/<name>.txt``, and
asserts the *shape* findings the paper reports (who wins, roughly by how
much, where the crossovers are).

Dataset stand-ins are scaled per dataset so the whole suite completes at
laptop timescales; the exact scales used are printed into every result file
and recorded in EXPERIMENTS.md.
"""

from __future__ import annotations

from pathlib import Path

RESULTS_DIR = Path(__file__).parent / "results"

#: per-dataset down-scale used by the end-to-end figures.  The large/skewed
#: stand-ins run at smaller scale because their difference-heavy patterns
#: (CYC/TT) blow up exactly as the paper's Table 5 shows.
BENCH_SCALE = {
    "PP": 0.25,
    "WV": 0.18,
    "AS": 0.18,
    "MI": 0.18,
    "YT": 0.08,
    "PA": 0.15,
    "LJ": 0.08,
}

#: end-to-end pattern set (5CF exercised separately by the host-split tests)
FIG_PATTERNS = ("3CF", "4CF", "CYC", "DIA", "TT")


def emit(name: str, text: str) -> str:
    """Print a result block and persist it under ``benchmarks/results/``."""
    RESULTS_DIR.mkdir(exist_ok=True)
    banner = f"\n===== {name} =====\n{text}\n"
    print(banner)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    return text


def once(benchmark, fn):
    """Run ``fn`` exactly once under pytest-benchmark timing.

    Simulations are deterministic and expensive; statistical repetition
    would only burn time without changing the regenerated numbers.
    """
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)
