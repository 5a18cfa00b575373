import importlib.util
from pathlib import Path

import pytest


def _load_bench_pairs():
    path = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
    spec = importlib.util.spec_from_file_location("bench_pairs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _pairs(parent, change):
    side = lambda v: {"metrics": {"ops_per_s": {"value": v}, "setup_s": {"value": v}}}
    return [{"parent": side(p), "change": side(c)} for p, c in zip(parent, change)]


OPS = {"name": "ops_per_s", "better": "higher", "bound": 0.25}
SETUP = {"name": "setup_s", "better": "lower", "bound": 0.25}


@pytest.mark.parametrize("parent, change, unresolved", [
    # a parent spread of 4% of its median resolves a 25% bound, whatever the change does
    ([98, 99, 100, 101, 102], [70, 71, 72, 73, 74], False),
    # a spread of 40% does not
    ([60, 80, 100, 120, 140], [62, 82, 98, 118, 139], True),
    # unless every change run beats every parent run
    ([60, 80, 100, 120, 140], [150, 160, 170, 180, 190], False),
    # a change run that only ties the parent's best does not beat it
    ([60, 80, 100, 120, 140], [140, 160, 170, 180, 190], True),
])
def test_unresolved_when_the_parents_spread_exceeds_the_bound(parent, change, unresolved):
    summary = _load_bench_pairs().summarize(_pairs(parent, change), [OPS])["ops_per_s"]
    assert summary["unresolved"] is unresolved
    assert summary["pairs"] == 5


def test_unresolved_reads_better_by_the_metrics_direction():
    bench = _load_bench_pairs()
    parent = [0.2, 0.3, 0.4, 0.5, 0.6]  # interquartile range 0.2, half the median
    faster = [0.1, 0.11, 0.12, 0.13, 0.14]
    assert not bench.summarize(_pairs(parent, faster), [SETUP])["setup_s"]["unresolved"]
    assert bench.summarize(_pairs(parent, faster), [OPS])["ops_per_s"]["unresolved"]
    summary = bench.summarize(_pairs(parent, faster), [SETUP])["setup_s"]
    assert summary["change_wins"] == 5 and summary["gain_shown"]
    assert not summary["worse_beyond_bound"]
